package vector

import (
	"math"
	"slices"

	"repro/internal/types"
)

// This file holds the bulk hash and equality kernels beneath the hash-keyed
// operators (GROUPBY, JOIN, DROP-DUPLICATES, DIFFERENCE, shuffle routing).
// Row identity used to be a rendered string key per row; these kernels
// replace it with a 64-bit hash computed directly over the typed storage
// slices, with equality verification on hash collisions.
//
// Hashes are canonical across domains exactly where types.Value.Key is:
// nulls of every domain share one hash, Int/Bool/integral-Float values of
// equal magnitude share one hash, and Object/Category share the string
// hash. The matching verification predicate is KeyEqual (and its typed
// form EqualRows): KeyEqual(a, b) implies equal hashes, so
// a hash-plus-verify table reproduces the rendered-key grouping semantics.
// KeyEqual is types.Value.Equal except that cross-representation numeric
// comparison is exact rather than in float64 space — see intFloatKeyEqual.

// Mixing constants (splitmix64 finalizer).
const (
	mixA = 0xbf58476d1ce4e5b9
	mixB = 0x94d049bb133111eb
)

// Per-kind tags keep e.g. Datetime(5ns) distinct from Int(5), mirroring the
// "t:" vs "i:" prefixes of types.Value.Key.
const (
	tagNull uint64 = 0x9ae16a3b2f90404f
	tagInt  uint64 = 0xc2b2ae3d27d4eb4f
	tagFlt  uint64 = 0x165667b19e3779f9
	tagTime uint64 = 0x27d4eb2f165667c5
	tagStr  uint64 = 0x85ebca77c2b2ae63
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mixA
	x ^= x >> 27
	x *= mixB
	x ^= x >> 31
	return x
}

func hashWord(seed, tag, x uint64) uint64 {
	return mix64(seed ^ tag ^ mix64(x))
}

// hashString is FNV-1a folded with the seed and string tag; deterministic
// across processes so shuffle plans can compare hashes from any task.
func hashString(seed uint64, s string) uint64 {
	h := uint64(14695981039346656037) ^ seed ^ tagStr
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// intRepresentable reports whether the float is integral and inside the
// int64 range, i.e. int64(f) is exact and well-defined.
func intRepresentable(f float64) bool {
	return f == math.Trunc(f) && f >= -9.223372036854776e18 && f < 9.223372036854776e18
}

// hashFloat canonicalizes int64-representable integral floats to the Int
// hash so cross-domain equal values (5 and 5.0) collide on purpose, as
// Value.Key does; everything else hashes its bit pattern.
func hashFloat(seed uint64, f float64) uint64 {
	if intRepresentable(f) {
		return hashWord(seed, tagInt, uint64(int64(f)))
	}
	return hashWord(seed, tagFlt, math.Float64bits(f))
}

// intFloatKeyEqual is the exact cross-representation numeric key equality
// matching hashFloat's canonicalization: an int64 equals a float64 only
// when the float is integral and converts to the same int64. (Boxed
// Value.Equal compares in float64 space, which conflates distinct integers
// above 2^53 with their float neighbors — under that relation equal keys
// could hash apart, making group/join results depend on whether the hash
// probe or the verifier saw the pair first.)
func intFloatKeyEqual(i int64, f float64) bool {
	return intRepresentable(f) && int64(f) == i
}

// KeyEqual reports whether two boxed values are the same grouping key:
// types.Value.Equal, except cross-representation numeric comparisons use
// the exact intFloatKeyEqual canonicalization, so KeyEqual(a, b) implies
// HashValue(a) == HashValue(b). It is the one verification predicate
// behind every hash-probe in the grouping, join and dedup kernels.
func KeyEqual(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	da, db := a.Domain(), b.Domain()
	if da != db && da.Numeric() && db.Numeric() {
		if da == types.Float && db != types.Float {
			return intFloatKeyEqual(numericInt(b), a.Float())
		}
		if db == types.Float && da != types.Float {
			return intFloatKeyEqual(numericInt(a), b.Float())
		}
	}
	return a.Equal(b)
}

// numericInt reads an Int or Bool value as int64.
func numericInt(v types.Value) int64 {
	if v.Domain() == types.Bool {
		if v.Bool() {
			return 1
		}
		return 0
	}
	return v.Int()
}

func hashBool(seed uint64, b bool) uint64 {
	if b {
		return hashWord(seed, tagInt, 1)
	}
	return hashWord(seed, tagInt, 0)
}

// HashValue hashes one boxed value under the canonicalization above. It is
// the scalar companion of Hash: the hash of a Dict code's value, of a cell
// in no typed storage, and of the replay's boxed key tuples.
func HashValue(v types.Value, seed uint64) uint64 {
	if v.IsNull() {
		return hashWord(seed, tagNull, 0)
	}
	switch v.Domain() {
	case types.Int:
		return hashWord(seed, tagInt, uint64(v.Int()))
	case types.Float:
		return hashFloat(seed, v.Float())
	case types.Bool:
		return hashBool(seed, v.Bool())
	case types.Datetime:
		return hashWord(seed, tagTime, uint64(v.Int()))
	case types.Object, types.Category:
		return hashString(seed, v.Str())
	default:
		return hashString(seed, v.Key())
	}
}

// Hash writes the canonical hash of every entry of v into dst (which must
// have length v.Len()), null-aware and without constructing types.Value.
func Hash(v Vector, seed uint64, dst []uint64) { HashRange(v, seed, 0, dst) }

// HashRange writes the canonical hash of entries [lo, lo+len(dst)) of v into
// dst, read in place: the typed vectors hash their storage slices directly,
// a selection view hashes its base's storage through its index, and a chunk
// hashes the pieces the range covers; Dict vectors hash each dictionary
// entry once and route codes through the precomputed table. A keyed kernel
// hashes its rows a range at a time without slicing its key columns.
func HashRange(v Vector, seed uint64, lo int, dst []uint64) {
	nullH := hashWord(seed, tagNull, 0)
	hi := lo + len(dst)
	switch c := v.(type) {
	case *Int:
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, x := range c.data[lo:hi] {
			if nulls != nil && nulls[i] {
				dst[i] = nullH
			} else {
				dst[i] = hashWord(seed, tagInt, uint64(x))
			}
		}
	case *Float:
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, x := range c.data[lo:hi] {
			if (nulls != nil && nulls[i]) || math.IsNaN(x) {
				// Unmasked NaN reads as null, like Float.Value.
				dst[i] = nullH
			} else {
				dst[i] = hashFloat(seed, x)
			}
		}
	case *Bool:
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, x := range c.data[lo:hi] {
			if nulls != nil && nulls[i] {
				dst[i] = nullH
			} else {
				dst[i] = hashBool(seed, x)
			}
		}
	case *Datetime:
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, x := range c.data[lo:hi] {
			if nulls != nil && nulls[i] {
				dst[i] = nullH
			} else {
				dst[i] = hashWord(seed, tagTime, uint64(x))
			}
		}
	case *Object:
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, s := range c.data[lo:hi] {
			if nulls != nil && nulls[i] {
				dst[i] = nullH
			} else {
				dst[i] = hashString(seed, s)
			}
		}
	case *Dict:
		table := make([]uint64, len(c.dict))
		for k, s := range c.dict {
			table[k] = hashString(seed, s)
		}
		nulls := sliceNulls(c.nulls, lo, hi)
		for i, code := range c.codes[lo:hi] {
			if nulls != nil && nulls[i] {
				dst[i] = nullH
			} else {
				dst[i] = table[code]
			}
		}
	case *sequence:
		checkSlice(c.n, lo, hi)
		for i := range dst {
			dst[i] = hashWord(seed, tagInt, uint64(c.start+int64(lo+i)))
		}
	case *view:
		hashView(c.base, c.idx[lo:hi], seed, dst)
	case *Chunked:
		s := c.st.Load()
		for p := s.locate(lo); len(dst) > 0; p++ {
			n := min(hi, s.offs[p+1]) - lo
			HashRange(s.pieces[p], seed, lo-s.offs[p], dst[:n])
			dst, lo = dst[n:], lo+n
		}
	default:
		for i := range dst {
			dst[i] = HashValue(v.Value(lo+i), seed)
		}
	}
}

// HashIsKey reports whether v's hash is its key: every entry of v is a
// non-null Int word x, which hashes to hashWord(seed, tagInt, x), a
// bijection of x — mix64's xor-shifts and odd multipliers each invert — so
// two such entries hash equal exactly when they are the same key, and a
// probe between such keys needs no equality check. It holds for a flat Int
// with no null, a sequence, and views and chunks over those with no -1
// entry, read in place. Every other vector keeps its check: a Float hashes
// its integral values as Ints and the rest under tagFlt, which may meet an
// Int's hash with no equal key; a null hashes as exactly one Int does; and
// the other domains are left to EqualRows.
func HashIsKey(v Vector) bool {
	switch c := v.(type) {
	case *Int:
		return !slices.Contains(c.nulls, true)
	case *sequence:
		return true
	case *Chunked:
		for _, p := range c.st.Load().pieces {
			if !HashIsKey(p) {
				return false
			}
		}
		return true
	case *view:
		var nulls []bool
		if b, ok := c.base.(*Int); ok {
			nulls = b.nulls
		} else if !HashIsKey(c.base) {
			return false
		}
		for _, j := range c.idx {
			if j < 0 || nulls != nil && nulls[j] {
				return false
			}
		}
		return true
	}
	return false
}

// hashView is Hash over the selection idx of base: it reads the base's
// typed storage through the index, -1 hashing as null, without copying.
// A chunk of several pieces is read in its pieces, as the gather reads
// them, so hashing a few rows never flattens it; a chunk's pieces, a
// sequence and boxed storage are hashed a cell at a time (hashCell).
func hashView(base Vector, idx []int, seed uint64, dst []uint64) {
	nullH := hashWord(seed, tagNull, 0)
	var ch *chunks
	if c, ok := base.(*Chunked); ok {
		if ch = c.st.Load(); len(ch.pieces) == 1 {
			base, ch = ch.pieces[0], nil // a flattened chunk: its flat copy
		}
	}
	switch c := base.(type) {
	case *Int:
		hashAt(dst, idx, c.data, c.nulls, nullH, func(x int64) uint64 { return hashWord(seed, tagInt, uint64(x)) })
	case *Float:
		hashAt(dst, idx, c.data, c.nulls, nullH, func(x float64) uint64 {
			if math.IsNaN(x) {
				return nullH
			}
			return hashFloat(seed, x)
		})
	case *Bool:
		hashAt(dst, idx, c.data, c.nulls, nullH, func(x bool) uint64 { return hashBool(seed, x) })
	case *Datetime:
		hashAt(dst, idx, c.data, c.nulls, nullH, func(x int64) uint64 { return hashWord(seed, tagTime, uint64(x)) })
	case *Object:
		hashAt(dst, idx, c.data, c.nulls, nullH, func(s string) uint64 { return hashString(seed, s) })
	case *Dict:
		table := make([]uint64, len(c.dict))
		for k, s := range c.dict {
			table[k] = hashString(seed, s)
		}
		hashAt(dst, idx, c.codes, c.nulls, nullH, func(code int32) uint64 { return table[code] })
	default:
		for i, j := range idx {
			switch {
			case j < 0:
				dst[i] = nullH
			case ch != nil:
				p := ch.locate(j)
				dst[i] = hashCell(ch.pieces[p], j-ch.offs[p], seed, nullH)
			default:
				dst[i] = hashCell(base, j, seed, nullH)
			}
		}
	}
}

// hashCell is Hash of row i of v — flat storage, a view over it, a
// sequence, or boxed cells — read in place; a Dict cell hashes its label.
func hashCell(v Vector, i int, seed, nullH uint64) uint64 {
	if vw, ok := v.(*view); ok {
		if i = vw.idx[i]; i < 0 {
			return nullH
		}
		v = vw.base
	}
	masked := func(nulls []bool) bool { return nulls != nil && nulls[i] }
	switch c := v.(type) {
	case *sequence:
		return hashWord(seed, tagInt, uint64(c.start+int64(i)))
	case *Int:
		if !masked(c.nulls) {
			return hashWord(seed, tagInt, uint64(c.data[i]))
		}
	case *Float:
		if x := c.data[i]; !masked(c.nulls) && !math.IsNaN(x) {
			return hashFloat(seed, x)
		}
	case *Bool:
		if !masked(c.nulls) {
			return hashBool(seed, c.data[i])
		}
	case *Datetime:
		if !masked(c.nulls) {
			return hashWord(seed, tagTime, uint64(c.data[i]))
		}
	case *Object:
		if !masked(c.nulls) {
			return hashString(seed, c.data[i])
		}
	case *Dict:
		if !masked(c.nulls) {
			return hashString(seed, c.dict[c.codes[i]])
		}
	default:
		return HashValue(v.Value(i), seed)
	}
	return nullH
}

// hashAt writes h of storage cell idx[i] into dst[i]; a -1 index and a
// masked cell hash as null.
func hashAt[T any](dst []uint64, idx []int, data []T, nulls []bool, nullH uint64, h func(T) uint64) {
	for i, j := range idx {
		if j < 0 || (nulls != nil && nulls[j]) {
			dst[i] = nullH
		} else {
			dst[i] = h(data[j])
		}
	}
}

// HashRows combines the column hashes of cols into one row hash per entry:
// the multi-key analog of Hash, replacing the rendered composite row key.
// dst must have the columns' shared length; zero columns hash every row to
// the same constant (the whole-frame group). The combination is
// order-sensitive, so ("a","b") and ("b","a") key rows differently.
func HashRows(cols []Vector, seed uint64, dst []uint64) {
	HashRowsRange(cols, seed, 0, dst, nil)
}

// HashRowsRange is HashRows of rows [lo, lo+len(dst)), read in place
// (HashRange), hashing the second and later columns into tmp, the caller's
// scratch of dst's length, so a caller that hashes many row ranges reuses
// one; a nil tmp is made when a second column needs it.
func HashRowsRange(cols []Vector, seed uint64, lo int, dst, tmp []uint64) {
	if len(cols) == 0 {
		base := mix64(seed ^ tagNull)
		for i := range dst {
			dst[i] = base
		}
		return
	}
	HashRange(cols[0], seed, lo, dst)
	if len(cols) == 1 {
		return
	}
	if tmp == nil {
		tmp = make([]uint64, len(dst))
	}
	tmp = tmp[:len(dst)]
	for _, c := range cols[1:] {
		HashRange(c, seed, lo, tmp)
		for i := range dst {
			dst[i] = mix64(dst[i]*mixA ^ tmp[i])
		}
	}
}

// HashRowValues is HashRows for one boxed key tuple: it produces the same
// hash a row with these column values gets, so a key hashed once from its
// value (a Dict code's, the whole-frame group's) or a boxed tuple of the
// replay's key fold meets the row hashes of typed storage.
func HashRowValues(vals []types.Value, seed uint64) uint64 {
	if len(vals) == 0 {
		return mix64(seed ^ tagNull)
	}
	h := HashValue(vals[0], seed)
	for _, v := range vals[1:] {
		h = mix64(h*mixA ^ HashValue(v, seed))
	}
	return h
}

// EqualRows reports whether entry i of a and entry j of b are the same group
// key, under the equivalence of types.Value.Equal (nulls equal each other,
// numerics compare across domains, Object and Category compare by content).
// Same-representation pairs compare on the storage slices without boxing; a
// selection view compares its base's entry, which a non-null row always has,
// and a chunk its piece's.
func EqualRows(a Vector, i int, b Vector, j int) bool {
	if c, ok := a.(*Chunked); ok {
		a, i = c.at(i)
	}
	if c, ok := b.(*Chunked); ok {
		b, j = c.at(j)
	}
	an, bn := a.IsNull(i), b.IsNull(j)
	if an || bn {
		return an && bn
	}
	if v, ok := a.(*view); ok {
		a, i = v.base, v.idx[i]
	}
	if v, ok := b.(*view); ok {
		b, j = v.base, v.idx[j]
	}
	switch ca := a.(type) {
	case *Int:
		switch cb := b.(type) {
		case *Int:
			return ca.data[i] == cb.data[j]
		case *Float:
			return intFloatKeyEqual(ca.data[i], cb.data[j])
		}
	case *Float:
		switch cb := b.(type) {
		case *Float:
			return ca.data[i] == cb.data[j]
		case *Int:
			return intFloatKeyEqual(cb.data[j], ca.data[i])
		}
	case *Bool:
		if cb, ok := b.(*Bool); ok {
			return ca.data[i] == cb.data[j]
		}
	case *Datetime:
		if cb, ok := b.(*Datetime); ok {
			return ca.data[i] == cb.data[j]
		}
	case *Object:
		switch cb := b.(type) {
		case *Object:
			return ca.data[i] == cb.data[j]
		case *Dict:
			return ca.data[i] == cb.dict[cb.codes[j]]
		}
	case *Dict:
		switch cb := b.(type) {
		case *Dict:
			return ca.dict[ca.codes[i]] == cb.dict[cb.codes[j]]
		case *Object:
			return ca.dict[ca.codes[i]] == cb.data[j]
		}
	}
	return KeyEqual(a.Value(i), b.Value(j))
}
