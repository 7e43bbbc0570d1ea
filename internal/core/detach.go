package core

import (
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/vector"
)

// Detach deep-copies the frame's column and label storage so the result
// shares no backing arrays with df. Compact only materializes view
// (selection-vector) columns; a frame built from Slice windows still
// aliases the arrays of the frame it was sliced from, pinning that frame in
// memory for as long as the slice lives. Spill-aware shuffles detach routed
// pieces, slices and views alike, so a streamed band is actually freed once
// it has been routed. The band's induction cache is left behind too: its
// memo holds the band's own raw and typed columns.
func (df *DataFrame) Detach() *DataFrame {
	cols := make([]vector.Vector, len(df.cols))
	for j, c := range df.cols {
		cols[j] = vector.Clone(c)
	}
	out := *df
	out.cols = cols
	out.rowLab = vector.Clone(df.rowLab)
	out.cache = nil
	out.domains = make([]int64, len(df.domains))
	for j := range df.domains {
		out.domains[j] = atomic.LoadInt64(&df.domains[j])
	}
	return &out
}

// EmptyLike returns a zero-row frame with df's column labels and declared
// domains and no induction cache. Its columns are one fresh zero-row vector
// per storage domain, shared by every column of that domain, so it costs a
// few vectors however wide df is and pins none of df's storage: a padding
// band beside a 10,000-column band is two vectors, not 20,000.
func (df *DataFrame) EmptyLike() *DataFrame {
	empty := make(map[types.Domain]vector.Vector)
	zero := func(v vector.Vector) vector.Vector {
		d := v.Domain()
		z, ok := empty[d]
		if !ok {
			z = vector.NewBuilder(d, 0).Build()
			empty[d] = z
		}
		return z
	}
	cols := make([]vector.Vector, len(df.cols))
	for j, c := range df.cols {
		cols[j] = zero(c)
	}
	domains := make([]int64, len(df.domains))
	for j := range df.domains {
		domains[j] = atomic.LoadInt64(&df.domains[j])
	}
	return &DataFrame{cols: cols, rowLab: zero(df.rowLab), colLab: df.colLab, domains: domains}
}
