package vector

import (
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Chunked is a column stored as an ordered list of pieces of one storage
// type, end to end: row i is row i-offs[p] of the piece p whose range holds
// it. It is what stacking row bands produces (Stack), so a gathered result
// keeps its bands' storage instead of copying every cell into one array —
// the partition layout stays metadata, as in the paper's MODIN frame.
//
// Row reads (Value, IsNull), Slice, Hash, EqualRows, the schema parse and
// every copy the gather makes — Take, TakeRuns, Concat, Clone and
// Transpose — read through the pieces. Every other typed fast path — the
// *Data accessors, the sort words, the filter kernels, the wire form —
// reads one flat copy, made by the first such call (flatten, one gather of
// the pieces), which then becomes the chunk's one piece: a column is
// flattened at most once however many statements read it, and its bands
// are not held beside the copy.
type Chunked struct {
	st atomic.Pointer[chunks]
	mu sync.Mutex // serialises flatten
}

// chunks is a chunk's storage: its pieces and their offsets. Stack and Slice
// make chunks of two or more pieces; one piece is the flat copy.
type chunks struct {
	pieces []Vector // each non-empty; one storage type (storageType)
	offs   []int    // offs[p] is piece p's first row; offs[len(pieces)] the length
}

// locate returns the piece that holds row i: the number of piece starts
// after the first at or below i. The sign bit of o-1-i is 1 exactly when
// i >= o, so the count takes no branch per start, and rows read in an order
// that jumps between pieces cost no mispredicted branch.
func (s *chunks) locate(i int) int {
	p := 0
	for _, o := range s.offs[1:len(s.pieces)] {
		p += int(uint(o-1-i) >> 63)
	}
	return p
}

// flattenedRows counts the rows copied by flattening chunks and sequences.
var flattenedRows atomic.Int64

// FlattenedRows returns the number of rows copied so far, process-wide, by
// flattening chunked columns and sequences into one array. Tests read it to
// check that a column is flattened at most once, and a sequence only by a
// typed accessor.
func FlattenedRows() int64 { return flattenedRows.Load() }

// storageType is the type of the storage v reads, seen through one
// selection view: pieces of one storage type stack into a chunk.
func storageType(v Vector) reflect.Type {
	if vw, ok := v.(*view); ok {
		v = vw.base
	}
	return reflect.TypeOf(v)
}

// stackCopyRows is the length below which Stack copies: a copy of so few
// rows costs about what a chunk's header, offsets and piece list cost
// (three allocations, about 140 bytes for two pieces), and a flat column
// reads faster. A transposed frame's thousands of short columns stay flat.
const stackCopyRows = 64

// Stack returns the vectors end to end without copying a cell when their
// storage is one type: the non-empty inputs, chunked inputs spliced piece by
// piece, become the pieces of a Chunked vector. A Dict piece keeps its own
// category table. Inputs of mixed storage types, and stacks shorter than
// stackCopyRows, are Concat's copy, with Concat's domain rule. Sequences
// that continue one another (Range) stack into one sequence. Stack of one
// non-empty input returns it; of zero inputs, an empty Object vector.
func Stack(vs ...Vector) Vector {
	n, last, nonEmpty := 0, 0, 0
	for k, v := range vs {
		if l := v.Len(); l > 0 {
			n, last, nonEmpty = n+l, k, nonEmpty+1
		}
	}
	if s, ok := continuing(vs); ok && nonEmpty > 1 {
		return s
	}
	switch {
	case nonEmpty == 1:
		return vs[last]
	case n < stackCopyRows:
		return Concat(vs...)
	}
	pieces := make([]Vector, 0, nonEmpty)
	for _, v := range vs {
		if c, ok := v.(*Chunked); ok {
			pieces = append(pieces, c.st.Load().pieces...)
		} else if v.Len() > 0 {
			pieces = append(pieces, v)
		}
	}
	typ := storageType(pieces[0])
	for _, p := range pieces[1:] {
		if storageType(p) != typ {
			return Concat(vs...)
		}
	}
	return newChunked(pieces)
}

// newChunked wraps non-empty pieces of one storage type.
func newChunked(pieces []Vector) *Chunked {
	offs := make([]int, len(pieces)+1)
	for p, v := range pieces {
		offs[p+1] = offs[p] + v.Len()
	}
	c := &Chunked{}
	c.st.Store(&chunks{pieces: pieces, offs: offs})
	return c
}

// Pieces returns the pieces of a chunked vector, in row order — its flat
// copy alone once it has been flattened — and v itself as the one piece of
// any other vector.
func Pieces(v Vector) []Vector {
	if c, ok := v.(*Chunked); ok {
		return c.st.Load().pieces
	}
	return []Vector{v}
}

// at returns the piece that holds row i and i's position in it.
func (c *Chunked) at(i int) (Vector, int) {
	s := c.st.Load()
	p := s.locate(i)
	return s.pieces[p], i - s.offs[p]
}

// Len returns the number of entries.
func (c *Chunked) Len() int {
	s := c.st.Load()
	return s.offs[len(s.pieces)]
}

// Domain returns the pieces' domain.
func (c *Chunked) Domain() types.Domain { return c.st.Load().pieces[0].Domain() }

// IsNull reports whether entry i is null.
func (c *Chunked) IsNull(i int) bool {
	v, i := c.at(i)
	return v.IsNull(i)
}

// Value returns entry i.
func (c *Chunked) Value(i int) types.Value {
	v, i := c.at(i)
	return v.Value(i)
}

// NullCount sums the pieces' null counts.
func (c *Chunked) NullCount() int {
	n := 0
	for _, v := range c.st.Load().pieces {
		n += NullCount(v)
	}
	return n
}

// Slice returns the subvector [lo, hi): a slice of one piece when the range
// lies inside it, else a chunk of the pieces' slices. Nothing is copied.
func (c *Chunked) Slice(lo, hi int) Vector {
	checkSlice(c.Len(), lo, hi)
	s := c.st.Load()
	p := s.locate(lo)
	if hi <= s.offs[p+1] {
		return s.pieces[p].Slice(lo-s.offs[p], hi-s.offs[p])
	}
	q := s.locate(hi - 1)
	pieces := make([]Vector, 0, q-p+1)
	for k := p; k <= q; k++ {
		from, to := max(lo-s.offs[k], 0), min(hi, s.offs[k+1])-s.offs[k]
		pieces = append(pieces, s.pieces[k].Slice(from, to))
	}
	return newChunked(pieces)
}

// Take returns the entries at idx, -1 yielding null, in one flat vector
// read straight from the pieces' storage.
func (c *Chunked) Take(idx []int) Vector { return take(c, idx) }

// flatten returns the chunk's flat copy, making it on the first call and
// keeping it as the chunk's one piece in place of the pieces it copied.
// Racing callers wait for the one copy.
func (c *Chunked) flatten() Vector {
	if s := c.st.Load(); len(s.pieces) == 1 {
		return s.pieces[0]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.st.Load()
	if len(s.pieces) == 1 {
		return s.pieces[0]
	}
	f := Concat(s.pieces...)
	flattenedRows.Add(int64(f.Len()))
	c.st.Store(&chunks{pieces: []Vector{f}, offs: []int{0, f.Len()}})
	return f
}

// flat returns v's flat storage: a chunk's or a sequence's flat copy, any
// other vector itself.
func flat(v Vector) Vector {
	switch c := v.(type) {
	case *Chunked:
		return c.flatten()
	case *sequence:
		return c.flatten()
	}
	return v
}

// unview returns the flat storage v reads and the selection it reads it
// through (nil: position i is entry i), seeing through one selection view
// and flattening a chunk.
func unview(v Vector) (Vector, []int) {
	if vw, ok := v.(*view); ok {
		return flat(vw.base), vw.idx
	}
	return flat(v), nil
}
