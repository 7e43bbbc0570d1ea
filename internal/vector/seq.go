package vector

import (
	"sync/atomic"

	"repro/internal/types"
)

// sequence is a storage-free Int column: row i reads start+i, and no row is
// null. It is what Range returns — the positional row labels a frame, a
// band, a routed piece and a collected result carry by default — so
// labelling n rows costs a header, not n words: the paper's MODIN keeps row
// labels as metadata beside the blocks, positional notation the default.
//
// Row reads (Value, IsNull), Slice, Hash and every copy the gather makes —
// Take, TakeRuns, Concat, Clone, the flattening of a chunk of sequences —
// compute start+i; Stack of sequences that continue one another is one
// sequence. Only the typed accessors (IntData and the kernels that read
// flat storage: the sort words, the filter kernels) read a flat copy, made
// by the first such call and kept, as a flattened chunk's is.
type sequence struct {
	start int64
	n     int
	flat  atomic.Pointer[Int] // the typed accessors' flat copy, once made
}

// Range returns the Int sequence [start, start+n) without storing it.
func Range(start int64, n int) Vector { return &sequence{start: start, n: n} }

// Len returns the number of entries.
func (s *sequence) Len() int { return s.n }

// Domain returns types.Int.
func (s *sequence) Domain() types.Domain { return types.Int }

// IsNull reports false: a sequence has no nulls.
func (s *sequence) IsNull(int) bool { return false }

// Value returns entry i, start+i.
func (s *sequence) Value(i int) types.Value {
	if i < 0 || i >= s.n {
		panic("vector: sequence row out of range")
	}
	return types.IntValue(s.start + int64(i))
}

// NullCount returns 0.
func (s *sequence) NullCount() int { return 0 }

// Slice returns the sequence [start+lo, start+hi).
func (s *sequence) Slice(lo, hi int) Vector {
	checkSlice(s.n, lo, hi)
	return Range(s.start+int64(lo), hi-lo)
}

// Take returns the entries at idx, -1 yielding null, computed, not read.
func (s *sequence) Take(idx []int) Vector { return take(s, idx) }

// take is the gather's take of positions idx of the sequence, -1 yielding
// null: one loop computing start+i, with no per-row call.
func (s *sequence) take(idx []int) *Int {
	data := make([]int64, len(idx))
	var nulls []bool
	for k, i := range idx {
		switch {
		case i < 0:
			if nulls == nil {
				nulls = make([]bool, len(idx))
			}
			nulls[k] = true
		case i >= s.n:
			panic("vector: sequence row out of range")
		default:
			data[k] = s.start + int64(i)
		}
	}
	return NewInt(data, nulls)
}

// flatten returns the sequence's flat copy, making it on the first call.
// Racing callers may each make one; all of them return the one kept.
func (s *sequence) flatten() *Int {
	if f := s.flat.Load(); f != nil {
		return f
	}
	data := make([]int64, s.n)
	for i := range data {
		data[i] = s.start + int64(i)
	}
	if s.flat.CompareAndSwap(nil, NewInt(data, nil)) {
		flattenedRows.Add(int64(s.n))
	}
	return s.flat.Load()
}

// continuing returns the one sequence the non-empty inputs make when each is
// a sequence that starts where the one before it ends.
func continuing(vs []Vector) (Vector, bool) {
	var first, next *sequence
	n := 0
	for _, v := range vs {
		if v.Len() == 0 {
			continue
		}
		s, ok := v.(*sequence)
		if !ok || next != nil && s.start != next.start+int64(next.n) {
			return nil, false
		}
		if first == nil {
			first = s
		}
		next, n = s, n+s.n
	}
	if first == nil {
		return nil, false
	}
	return Range(first.start, n), true
}
