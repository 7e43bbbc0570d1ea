// Package cluster is the distributed execution backend (ROADMAP item 1,
// the paper's Section 3.3 claim taken out of one process): dfworker
// processes execute fused stages and shuffle phases shipped over a
// length-prefixed columnar wire format serialized straight from
// internal/vector typed storage, while a coordinator-side Scheduler
// implements the df-facing engine surface, assigns band tasks round-robin,
// places shuffle merges where their bucket's bytes landed, and re-submits a
// lost band's lineage when a worker dies. The in-process MODIN engine
// remains the degenerate backend (Local) and the fallback for plans whose
// operators cannot cross a process boundary (opaque Go closures).
//
// The package speaks two wire forms and owns one: dataframes travel in the
// block format internal/core defines (the spill format too); control
// messages are the package's own gob forms (proto.go), whose plan is the expr
// spec the local compiler consumes — *expr.Where, expr.GroupBySpec, the
// Sort node's order — with scalars in the one binary form internal/types
// defines (types.Value is a gob BinaryMarshaler).
package cluster

import (
	"repro/internal/core"
	"repro/internal/vector"
)

// EncodeFrame serializes df onto buf in the block format (core.EncodeFrame)
// and returns the extended buffer.
func EncodeFrame(buf []byte, df *core.DataFrame) ([]byte, error) {
	return core.EncodeFrame(buf, df)
}

// DecodeFrame decodes one block off buf, returning the frame and the
// remaining bytes.
func DecodeFrame(buf []byte) (*core.DataFrame, []byte, error) {
	return core.DecodeFrame(buf)
}

// frameBytes estimates a frame's wire footprint without encoding it —
// workers report per-bucket routed sizes through this, and the coordinator
// places each merge on the worker holding the most bytes of its bucket.
func frameBytes(df *core.DataFrame) int64 {
	var total int64
	for j := 0; j < df.NCols(); j++ {
		total += vectorBytes(df.Col(j))
	}
	total += vectorBytes(df.RowLabels())
	return total
}

func vectorBytes(v vector.Vector) int64 {
	switch t := v.(type) {
	case *vector.Object:
		var b int64
		for _, s := range t.RawData() {
			b += int64(len(s)) + 4
		}
		return b
	case *vector.Bool:
		return int64(t.Len())
	case *vector.Dict:
		var b int64 = int64(t.Len()) * 4
		for _, s := range t.Categories() {
			b += int64(len(s)) + 4
		}
		return b
	default:
		return int64(v.Len()) * 8
	}
}
