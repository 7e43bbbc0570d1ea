package algebra

import (
	"math/bits"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// keyIndex is the one hash index behind key identity. It maps a key's
// 64-bit row hash to a dense id — 0, 1, 2, … in first-insertion order, so
// per-key state lives in slices indexed by id — by open addressing with
// linear probing over the stored hashes, and never sees a key: its resolver,
// keyRows, binds a frame's key columns to it in one of three
// representations, picked once per frame:
//
//   - one Dict column (dictCodes): each distinct code resolves once, by its
//     value's hash, and a row reads its code's id from a memo;
//   - an exact key: one non-null Int column (vector.HashIsKey), whose
//     full-width hash is a bijection of its word, so a hash match is the key;
//   - verified row hashes (rowHashes): a hash match is checked by typed
//     equality against the key's anchor row — the frame's own row for a key
//     it added, else the caller's — so keys that collide stay apart.
//
// The index is exact until a frame that is not inserts into it. The slot
// table doubles before it passes half full, the id-indexed hashes with it
// (push, as per-key state grows by extend), unless a caller reserves it.
// The zero value is an empty index. Only the replay's GroupKeyFold probes
// it without keyRows.
type keyIndex struct {
	slots   []int32  // slot → id, -1 empty; power-of-two length
	hashes  []uint64 // id → hash
	shift   uint     // 64 − log2(len(slots))
	inexact bool     // some inserting frame's key was not exact
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

// keyRows is the key-id resolver: one frame's n-row key columns bound to the
// keyIndex they resolve against, in their representation (see keyIndex). An
// inserting frame adds the keys the index lacks and records, by id, the row
// that added each (rows); a finding frame writes nothing into the index, so
// any number of them may read one index at once.
type keyRows struct {
	x     *keyIndex
	cols  []vector.Vector
	n     int
	rows  *[]int32                              // id → the row that added it; nil: the frame only finds
	fresh int32                                 // the first id this frame may add
	prior func(id int32) ([]vector.Vector, int) // the columns and row of a key added before the frame
	exact bool                                  // the row hash is the key: no match is checked

	nullsApart bool  // a key with a null cell has no id (-1): a join's nulls never match
	runs       bool  // sorted input (or no key): a row equal to its predecessor takes its id
	last       int32 // the previous row's id

	hashes *rowHashes // the hashed representations
	dict   dictCodes  // the Dict representation, when codeID is set
	codeID []int32    // code → id, unseen until a row carries it
}

// bind prepares the n-row key columns cols to map rows to ids against x. A
// frame inserts when rows, which holds an entry per id in x, is set; prior
// may be nil while x is empty.
func (x *keyIndex) bind(cols []vector.Vector, n int, rows *[]int32, prior func(id int32) ([]vector.Vector, int)) keyRows {
	exact := len(cols) == 1 && rowHashMask == ^uint64(0) && vector.HashIsKey(cols[0])
	if rows != nil { // a finding frame writes nothing into x
		x.inexact = x.inexact || !exact
	}
	k := keyRows{x: x, cols: cols, n: n, rows: rows, fresh: int32(len(x.hashes)), prior: prior,
		exact: exact && !x.inexact, runs: len(cols) == 0}
	if d, ok := dictKey(cols); ok {
		k.dict, k.codeID = d, slices.Repeat([]int32{unseen}, int(d.null)+1)
	} else {
		k.hashes = newRowHashes(cols, n)
	}
	return k
}

// ids writes the ids of rows [lo, lo+len(dst)) into dst. A key the index
// lacks is added when the frame inserts and reads -1 when it only finds; a
// key with a null cell reads -1 when nulls stand apart.
func (k *keyRows) ids(lo int, dst []int32) {
	var i int // the row being resolved, which eq checks against an anchor
	var eq func(id int32) bool
	if !k.exact {
		eq = func(id int32) bool {
			if id >= k.fresh {
				return rowsEqualAt(k.cols, int((*k.rows)[id]), k.cols, i)
			}
			cols, j := k.prior(id)
			return rowsEqualAt(cols, j, k.cols, i)
		}
	}
	if codeID := k.codeID; codeID != nil {
		d := &k.dict
		for r := range dst {
			i = lo + r
			c := d.code(i)
			id := codeID[c]
			if id == unseen {
				if id = -1; !k.nullsApart || c != d.null {
					id = k.id(hashValues([]types.Value{k.cols[0].Value(i)}), i, eq)
				}
				codeID[c] = id
			}
			dst[r] = id
		}
		return
	}
	hashes, last := k.hashes, k.last
	runs, nullsApart := k.runs, k.nullsApart && !k.exact
	for r := range dst {
		i = lo + r
		switch {
		case runs && i > 0 && rowsEqualAt(k.cols, i-1, k.cols, i):
		case nullsApart && slices.ContainsFunc(k.cols, func(c vector.Vector) bool { return c.IsNull(i) }):
			last = -1
		default:
			last = k.id(hashes.at(i), i, eq)
		}
		dst[r] = last
	}
	k.last = last
}

// id returns the id of row i's key, hash h, whose matches eq checks.
func (k *keyRows) id(h uint64, i int, eq func(id int32) bool) int32 {
	if k.rows == nil {
		return k.x.find(h, eq)
	}
	id, added := k.x.insert(h, eq)
	if added {
		*k.rows = push(*k.rows, int32(i))
	}
	return id
}

// each resolves every row a chunk at a time, handing fn each chunk's first
// row and ids (nil fn: the frame only adds its keys).
func (k *keyRows) each(fn func(lo int, ids []int32)) {
	ids := make([]int32, min(k.n, groupChunk))
	for lo := 0; lo < k.n; lo += len(ids) {
		ids = ids[:min(len(ids), k.n-lo)]
		if k.ids(lo, ids); fn != nil {
			fn(lo, ids)
		}
	}
}

// firstRows adds the keys of the n-row key columns cols to x and returns,
// by id, the row that first carried each (a key with a null cell gets none
// when nullsApart is set).
func (x *keyIndex) firstRows(cols []vector.Vector, n int, nullsApart bool) []int32 {
	var first []int32
	k := x.bind(cols, n, &first, nil)
	k.nullsApart = nullsApart
	k.each(nil)
	return first
}

// dictCodes reads a key that is one Dict column — flat, viewed, or a chunk
// of one piece — by code; code null, the category table's length, is the
// null key (a null cell or a view's -1 entry).
type dictCodes struct {
	codes []int32
	nulls []bool
	idx   []int
	null  int32
}

// unseen is a per-code memo's entry (code → id or bucket, the null key
// last) for a code no row has carried yet.
const unseen = -2

// dictKey unwraps key columns that are one Dict column.
func dictKey(cols []vector.Vector) (dictCodes, bool) {
	if len(cols) != 1 {
		return dictCodes{}, false
	}
	codes, dict, nulls, idx, ok := vector.DictData(cols[0])
	return dictCodes{codes, nulls, idx, int32(len(dict))}, ok
}

// code returns row i's code.
func (d *dictCodes) code(i int) int32 {
	if d.idx != nil {
		if i = d.idx[i]; i < 0 {
			return d.null
		}
	}
	if d.nulls != nil && d.nulls[i] {
		return d.null
	}
	return d.codes[i]
}

// rowsEqualAt verifies column-wise key equality between row i of cols a and
// row j of cols b.
func rowsEqualAt(a []vector.Vector, i int, b []vector.Vector, j int) bool {
	for k := range a {
		if !vector.EqualRows(a[k], i, b[k], j) {
			return false
		}
	}
	return true
}
