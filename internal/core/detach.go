package core

import (
	"sync/atomic"

	"repro/internal/vector"
)

// Detach deep-copies the frame's column and label storage so the result
// shares no backing arrays with df. Compact only materializes view
// (selection-vector) columns; a frame built from Slice windows — a sort
// shuffle's routed runs in particular — still aliases the arrays of the
// frame it was sliced from, pinning that frame in memory for as long as
// the slice lives. Spill-aware shuffles detach routed pieces so a streamed
// band is actually freed once it has been routed. The band's induction cache
// is left behind too: its memo holds the band's own raw and typed columns.
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
