package vector

import (
	"slices"

	"repro/internal/types"
)

// The gather is the package's one copy kernel: Take, Concat, Clone,
// Chunked.flatten, TakeRuns and Transpose copy cells of one storage kind
// out of flat, viewed and chunked inputs through it. Each input is resolved
// once to its storage (cells); the row loops then read it with no boxing,
// specialized by the input's shape so that a flat vector or a view over
// one never pays a chunk's piece lookup. A sequence (Range), or a view over
// one, has no storage: its cells are computed, start+row, never copied
// from a flat copy.

// gather names the cells a copy reads from vs.
type gather struct {
	vs   []Vector
	mode gatherMode
	idx  []int    // positions: entry k is row idx[k] of vs[0], -1 null
	at   []RunRow // runs: entry k is row at[k].Row of vs[at[k].Run]
	dst  []Vector // transposed: dst[i] holds row i of every input
}

type gatherMode uint8

const (
	allRows    gatherMode = iota // every row of every input, end to end
	positions                    // idx over the one input
	runs                         // at over the inputs
	transposed                   // every row of input j into column j of dst
)

// take returns the entries of v at idx, -1 yielding null: every vector
// kind's Take.
func take(v Vector, idx []int) Vector {
	return (&gather{vs: []Vector{v}, mode: positions, idx: idx}).run()
}

// run copies g's cells into one flat vector. Inputs of one storage kind —
// Dict inputs only on one category table — copy storage as stored (a Float
// NaN stays NaN, -0 keeps its sign, a null cell keeps its stored value);
// any others are built boxed in concatDomain's domain.
func (g *gather) run() Vector {
	if v, ok := g.typed(g.vs[0].Domain()); ok {
		return v
	}
	b := NewBuilder(concatDomain(g.vs), g.len())
	switch g.mode {
	case allRows:
		for _, v := range g.vs {
			for i := range v.Len() {
				b.Append(v.Value(i))
			}
		}
	case positions:
		for _, i := range g.idx {
			if i < 0 {
				b.AppendNull()
			} else {
				b.Append(g.vs[0].Value(i))
			}
		}
	case runs:
		for _, rr := range g.at {
			b.Append(g.vs[rr.Run].Value(int(rr.Row)))
		}
	}
	return b.Build()
}

// len is the number of cells g copies.
func (g *gather) len() int {
	switch g.mode {
	case positions:
		return len(g.idx)
	case runs:
		return len(g.at)
	case transposed:
		return len(g.dst) * len(g.vs)
	}
	n := 0
	for _, v := range g.vs {
		n += v.Len()
	}
	return n
}

// typed is the gather over inputs that all store domain d's kind, reporting
// false, having written nothing, when one does not.
func (g *gather) typed(d types.Domain) (Vector, bool) {
	switch d {
	case types.Int:
		if s, ok := g.vs[0].(*sequence); ok && g.mode == positions {
			return s.take(g.idx), true
		}
		return gatherAs(g, func(v *Int) ([]int64, []bool, bool) { return v.data, v.nulls, true },
			func(data []int64, nulls []bool) Int { return Int{data, nulls} }, seqCells)
	case types.Float:
		return gatherAs(g, func(v *Float) ([]float64, []bool, bool) { return v.data, v.nulls, true },
			func(data []float64, nulls []bool) Float { return Float{data, nulls} }, nil)
	case types.Bool:
		return gatherAs(g, func(v *Bool) ([]bool, []bool, bool) { return v.data, v.nulls, true },
			func(data []bool, nulls []bool) Bool { return Bool{data, nulls} }, nil)
	case types.Datetime:
		return gatherAs(g, func(v *Datetime) ([]int64, []bool, bool) { return v.data, v.nulls, true },
			func(data []int64, nulls []bool) Datetime { return Datetime{data, nulls} }, nil)
	case types.Object:
		return gatherAs(g, func(v *Object) ([]string, []bool, bool) { return v.data, v.nulls, true },
			func(data []string, nulls []bool) Object { return Object{data, nulls} }, nil)
	case types.Category:
		var table []string
		first := true
		return gatherAs(g, func(v *Dict) ([]int32, []bool, bool) {
			if first {
				table, first = v.dict, false
			}
			return v.codes, v.nulls, sameDict(table, v.dict)
		}, func(codes []int32, nulls []bool) Dict { return Dict{codes, table, nulls} }, nil)
	}
	return nil, false
}

// seqCells is the Int gather's reading of a sequence: position i of the
// sequence that starts at start is start+i.
func seqCells(start int64) func(int) int64 {
	return func(i int) int64 { return start + int64(i) }
}

// gatherAs is the gather over storage of element type T held by vectors
// *V: parts reads a flat vector's storage (false refuses it), build wraps
// the output, and seq, for the one kind a sequence reads as, computes a
// sequence's cells (nil: a sequence is refused).
func gatherAs[T, V any, PV interface {
	*V
	Vector
}](g *gather, parts func(PV) ([]T, []bool, bool), build func([]T, []bool) V, seq func(int64) func(int) T) (Vector, bool) {
	var buf [4]cells[T]
	cs := buf[:0]
	for _, v := range g.vs {
		c, ok := resolve(v, parts, seq)
		if !ok {
			return nil, false
		}
		cs = append(cs, c)
	}
	if c := &cs[0]; g.mode == allRows && len(cs) == 1 && c.ch == nil && c.sel == nil && c.seq == nil {
		// A clone of flat storage: copying into a zeroed array costs a
		// fifth more than cloning.
		v := PV(new(V))
		*v = build(slices.Clone(c.data), slices.Clone(c.nulls))
		return v, true
	}
	d := gathered[T]{data: make([]T, g.len()), stride: 1}
	switch g.mode {
	case allRows:
		for k := range cs {
			d.all(&cs[k])
			d.off += g.vs[k].Len()
		}
	case positions:
		d.take(&cs[0], g.idx)
	case runs:
		d.runs(cs, g.at)
	case transposed:
		m, n := len(g.dst), len(cs)
		d.stride = n
		for j := 0; j < n && m > 0; j++ { // no rows: d.data[j:] is out of range
			d.off = j
			d.all(&cs[j])
		}
		vs := make([]V, m)
		for i := range vs {
			var nulls []bool
			if d.nulls != nil && slices.Contains(d.nulls[i*n:(i+1)*n], true) {
				nulls = d.nulls[i*n : (i+1)*n : (i+1)*n]
			}
			vs[i] = build(d.data[i*n:(i+1)*n:(i+1)*n], nulls)
			g.dst[i] = PV(&vs[i])
		}
		return nil, true
	}
	v := PV(new(V))
	*v = build(d.data, d.nulls)
	return v, true
}

// piece is flat storage read through an optional selection: row k is
// storage position k, or sel[k] when sel is set (-1 null). A sequence's
// piece has no storage: position i is seq(i), of n positions.
type piece[T any] struct {
	data  []T
	nulls []bool // nil: no nulls
	sel   []int
	seq   func(int) T
	n     int
}

// cells is one input resolved to its storage: a flat vector or a view over
// one is its piece; a chunk (ch set) is its pieces, each flat or a view over
// flat storage, read through sel when the input is a view over the chunk.
type cells[T any] struct {
	piece[T]
	ch     *chunks
	pieces []piece[T]
}

// resolve returns v's storage when every flat vector it reads is a PV that
// parts accepts, or a sequence that seq reads.
func resolve[T any, PV Vector](v Vector, parts func(PV) ([]T, []bool, bool), seq func(int64) func(int) T) (c cells[T], ok bool) {
	if vw, viewed := v.(*view); viewed {
		v, c.sel = vw.base, vw.idx
	}
	if ch, chunked := v.(*Chunked); chunked {
		s := ch.st.Load()
		if len(s.pieces) == 1 {
			v = s.pieces[0] // a flattened chunk: its flat copy
		} else {
			c.ch, c.pieces = s, make([]piece[T], len(s.pieces))
			for p, pv := range s.pieces {
				pc, ok := resolve(pv, parts, seq)
				if !ok || pc.ch != nil {
					return c, false
				}
				c.pieces[p] = pc.piece
			}
			return c, true
		}
	}
	if s, ok := v.(*sequence); ok {
		if seq == nil {
			return c, false
		}
		c.seq, c.n = seq(s.start), s.n
		return c, true
	}
	flat, ok := v.(PV)
	if ok {
		c.data, c.nulls, ok = parts(flat)
	}
	return c, ok
}

// len is the number of rows of a piece.
func (p *piece[T]) len() int {
	switch {
	case p.sel != nil:
		return len(p.sel)
	case p.seq != nil:
		return p.n
	}
	return len(p.data)
}

// cell returns row i of p, -1 null, and whether it is null; a masked
// cell's stored value comes with it.
func (p *piece[T]) cell(i int) (v T, null bool) {
	if i >= 0 && p.sel != nil {
		i = p.sel[i]
	}
	if i < 0 {
		return v, true
	}
	return p.data[i], p.nulls != nil && p.nulls[i]
}

// seqCell is cell for a sequence's piece, kept apart so that cell, which
// the storage loops inline, stays small.
func (p *piece[T]) seqCell(i int) (v T, null bool) {
	if i >= 0 && p.sel != nil {
		i = p.sel[i]
	}
	if i < 0 {
		return v, true
	}
	return p.seq(i), false
}

// cell returns row i of the input, -1 null, and whether it is null. It is
// too large to inline: the loops over one piece's rows call piece.cell.
func (c *cells[T]) cell(i int) (v T, null bool) {
	if c.ch == nil {
		if c.seq != nil {
			return c.piece.seqCell(i)
		}
		return c.piece.cell(i)
	}
	if i >= 0 && c.sel != nil {
		i = c.sel[i]
	}
	if i < 0 {
		return v, true
	}
	p := c.ch.locate(i)
	if pc := &c.pieces[p]; pc.seq != nil {
		return pc.seqCell(i - c.ch.offs[p])
	}
	return c.pieces[p].cell(i - c.ch.offs[p])
}

// gathered is a gather's output: entry k is data[off+k*stride], and the
// null mask is made on the first null.
type gathered[T any] struct {
	data        []T
	nulls       []bool
	off, stride int
}

// mask returns the output's null mask, making it on the first call.
func (d *gathered[T]) mask() []bool {
	if d.nulls == nil {
		d.nulls = make([]bool, len(d.data))
	}
	return d.nulls
}

func (d *gathered[T]) null(k int) { d.mask()[d.off+k*d.stride] = true }

// take copies rows idx of c into entries 0, 1, …. A flat input, and a chunk
// whose pieces have no selection, no nulls and no sequence (takePlain), have
// loops of their own that skip the per-row checks; a view over flat storage
// or a sequence, and any other chunk, read each row through cells.cell. (A
// take of a sequence itself is sequence.take.)
func (d *gathered[T]) take(c *cells[T], idx []int) {
	out, s := d.data[d.off:], d.stride
	switch {
	case c.ch == nil && c.sel == nil && c.seq == nil && s == 1:
		data, nulls := c.data, c.nulls
		for k, i := range idx {
			if i < 0 || nulls != nil && nulls[i] {
				d.null(k)
				if i < 0 {
					continue
				}
			}
			out[k] = data[i]
		}
	case s == 1 && c.ch != nil && c.sel == nil && !slices.ContainsFunc(c.pieces, func(p piece[T]) bool { return p.sel != nil || p.nulls != nil || p.seq != nil }):
		if takePlain(out[:len(idx)], c.ch, c.pieces, idx) {
			for k, i := range idx {
				if i < 0 {
					d.null(k)
				}
			}
		}
	default:
		for k, i := range idx {
			v, null := c.cell(i)
			out[k*s] = v
			if null {
				d.null(k)
			}
		}
	}
}

// takePlain copies rows idx of a chunk's pieces, none with a selection or
// nulls, into out, reporting whether idx holds a -1.
func takePlain[T any](out []T, ch *chunks, pieces []piece[T], idx []int) bool {
	data := make([][]T, len(pieces)) // a list of slices reads a quarter faster than the pieces
	for p := range pieces {
		data[p] = pieces[p].data
	}
	null := false
	for k, i := range idx {
		if i < 0 {
			null = true
			continue
		}
		p := ch.locate(i)
		out[k] = data[p][i-ch.offs[p]]
	}
	return null
}

// runs copies rows at of the runs cs into entries 0, 1, …. Runs that are
// each one piece of storage, as a sort merge's views over their bands are,
// skip the chunk lookup.
func (d *gathered[T]) runs(cs []cells[T], at []RunRow) {
	if !slices.ContainsFunc(cs, func(c cells[T]) bool { return c.ch != nil || c.seq != nil }) {
		for k, rr := range at {
			v, null := cs[rr.Run].piece.cell(int(rr.Row))
			d.data[k] = v
			if null {
				d.null(k)
			}
		}
		return
	}
	for k, rr := range at {
		v, null := cs[rr.Run].cell(int(rr.Row))
		d.data[k] = v
		if null {
			d.null(k)
		}
	}
}

// all copies every row of c into entries 0, 1, ….
func (d *gathered[T]) all(c *cells[T]) {
	switch {
	case c.ch == nil:
		d.copy(c.piece)
	case c.sel != nil:
		whole := cells[T]{ch: c.ch, pieces: c.pieces}
		d.take(&whole, c.sel)
	default:
		off := d.off
		for _, p := range c.pieces {
			d.copy(p)
			d.off += p.len() * d.stride
		}
		d.off = off
	}
}

// copy copies every row of p into entries 0, 1, …: its storage and mask
// with the builtin copy when p has no selection and the entries are
// adjacent; a sequence's cells are computed.
func (d *gathered[T]) copy(p piece[T]) {
	out, s := d.data[d.off:], d.stride
	switch {
	case p.seq != nil:
		for k := range p.len() {
			v, null := p.seqCell(k)
			out[k*s] = v
			if null {
				d.null(k)
			}
		}
		return
	case p.sel == nil && s == 1:
		copy(out, p.data)
		if p.nulls != nil {
			copy(d.mask()[d.off:], p.nulls)
		}
		return
	}
	for k := range p.len() {
		v, null := p.cell(k)
		out[k*s] = v
		if null {
			d.null(k)
		}
	}
}
