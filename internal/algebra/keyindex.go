package algebra

import (
	"math/bits"
	"slices"
)

// keyIndex is the one hash index behind every key-identity kernel: GROUPBY
// partials and their merge, the replay's key summaries and their fold, the
// one JoinTable a join builds over its right input, DROP-DUPLICATES and
// DIFFERENCE. It maps a key's 64-bit row hash to a dense id — 0, 1, 2, …
// in first-insertion order, so callers keep per-key state in plain slices
// indexed by id — by open addressing with linear probing over the stored
// hashes. It never sees a key: the caller passes the equality check of its
// own representation — rowsEqualAt over typed rows (a frame's own first
// rows, a group table's kept key chunks, a join build's first rows) or, in
// the replay's key fold, tuplesEqual over boxed tuples — which runs only on
// ids whose stored hash equals the probe's, so distinct keys that collide
// on the hash keep distinct ids. A nil check means the hash is the key: the
// caller passes one only when every key stored and every key probed is a
// single non-null Int column under the full-width hash (hashIsKey). An Int's
// hash is a bijection of its word, so equal hashes are equal keys there,
// and the check — interface reads and type switches on every match, about
// half a keyed kernel's time — is skipped. A Float, a null (whose hash is
// one Int's), a composite or any other domain, and every hash narrowed by
// SetRowHashMaskForTesting keep the check. The slot table doubles,
// re-placing ids by their stored hashes, before it passes half full, and
// the id-indexed hashes double with it (push), as every caller's id-indexed
// state does (extend): the index and its state grow with the keys, not the
// rows. Only
// BuildJoinTable, which knows a bound on its key count (a build of n rows
// holds at most n keys) and keeps an n-row chain besides, reserves it up
// front instead. The probing rows' hashes are a chunk at a time
// (rowHashes). The zero value is an empty index.
type keyIndex struct {
	slots  []int32  // slot → id, -1 empty; power-of-two length
	hashes []uint64 // id → hash
	shift  uint     // 64 − log2(len(slots))
}

// find returns the id of the key with hash h that eq accepts (any, for a
// nil eq), or -1.
func (x *keyIndex) find(h uint64, eq func(id int32) bool) int32 {
	if len(x.hashes) == 0 {
		return -1
	}
	_, id := x.probe(h, eq)
	return id
}

// insert returns the id of the key with hash h that eq accepts, adding the
// next dense id when there is none.
func (x *keyIndex) insert(h uint64, eq func(id int32) bool) (id int32, added bool) {
	if 2*(len(x.hashes)+1) > len(x.slots) {
		x.grow()
	}
	s, id := x.probe(h, eq)
	if id >= 0 {
		return id, false
	}
	id = int32(len(x.hashes))
	x.slots[s] = id
	x.hashes = push(x.hashes, h)
	return id, true
}

// probe walks h's run of slots to the id eq accepts — the first id stored
// under h, for a nil eq — or to the empty slot that ends the run (id -1).
func (x *keyIndex) probe(h uint64, eq func(id int32) bool) (slot int, id int32) {
	mask := len(x.slots) - 1
	for s := x.home(h); ; s = (s + 1) & mask {
		if id := x.slots[s]; id < 0 || x.hashes[id] == h && (eq == nil || eq(id)) {
			return s, id
		}
	}
}

// verifyUnless returns eq, or nil — the hash is the key — when exact.
func verifyUnless(exact bool, eq func(id int32) bool) func(id int32) bool {
	if exact {
		return nil
	}
	return eq
}

// home is h's first slot. Fibonacci hashing reads the top bits of h times
// 2^64/φ, so the keys of one shuffle bucket — whose hashes agree modulo the
// bucket count — still spread over the whole table.
func (x *keyIndex) home(h uint64) int { return int(h * 0x9e3779b97f4a7c15 >> x.shift) }

// reserve sizes the index for n keys: no insert grows it before it holds
// n ids.
func (x *keyIndex) reserve(n int) {
	if n <= 0 {
		return
	}
	x.hashes = slices.Grow(x.hashes, n-len(x.hashes))
	if slots := 1 << bits.Len(uint(2*n-1)); slots > len(x.slots) {
		x.resize(slots)
	}
}

// grow doubles the slot table.
func (x *keyIndex) grow() { x.resize(max(2*len(x.slots), 8)) }

// resize makes a slot table of n slots, a power of two, and re-places every
// id by its stored hash.
func (x *keyIndex) resize(n int) {
	x.slots = make([]int32, n)
	for s := range x.slots {
		x.slots[s] = -1
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for id, h := range x.hashes {
		s := x.home(h)
		for x.slots[s] >= 0 {
			s = (s + 1) & (n - 1)
		}
		x.slots[s] = int32(id)
	}
}

// extend returns s extended to n entries, the new ones zero. When s must
// move it moves to at least twice its capacity, and at least 8 entries:
// append grows a long slice by about a quarter at a time, so state grown one
// key at a time by append allocates about five times its final size, and by
// doubling about twice; starting at 8 skips the doublings through 1, 2 and 4.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		t := make([]T, n, max(n, 2*cap(s), 8))
		copy(t, s)
		return t
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// push appends v to s, growing s as extend does.
func push[T any](s []T, v T) []T {
	s = extend(s, len(s)+1)
	s[len(s)-1] = v
	return s
}
