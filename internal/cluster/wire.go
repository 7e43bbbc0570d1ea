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
// The package owns two wire forms and nothing else: the block format below
// for dataframes, and gob control messages (proto.go) whose plan is the expr
// spec the local compiler consumes — *expr.Where, expr.GroupBySpec, the
// Sort node's order — with scalars in the one binary form internal/types
// defines (types.Value is a gob BinaryMarshaler).
package cluster

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/vector"
)

// Block wire format: a dataframe serialized column-by-column through the
// vector layer's raw little-endian codec (vector.AppendWire). Layout:
//
//	u32 ncols
//	u8  declared domains ×ncols   (types.Domain as stored; Unspecified ok)
//	row-label vector              (vector wire form)
//	column labels ×ncols          (types.Value binary form)
//	column vectors ×ncols         (vector wire form)
//
// Composite values have no binary form, so they cannot cross the wire —
// plans producing them stay on the in-process backend.

// EncodeFrame serializes df onto buf and returns the extended buffer.
func EncodeFrame(buf []byte, df *core.DataFrame) ([]byte, error) {
	n := df.NCols()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for j := 0; j < n; j++ {
		buf = append(buf, byte(df.DeclaredDomain(j)))
	}
	var err error
	buf, err = vector.AppendWire(buf, df.RowLabels())
	if err != nil {
		return nil, fmt.Errorf("cluster: encode row labels: %w", err)
	}
	for j := 0; j < n; j++ {
		buf, err = df.ColLabels()[j].AppendBinary(buf)
		if err != nil {
			return nil, fmt.Errorf("cluster: encode column label %d: %w", j, err)
		}
	}
	for j := 0; j < n; j++ {
		buf, err = vector.AppendWire(buf, df.Col(j))
		if err != nil {
			return nil, fmt.Errorf("cluster: encode column %d: %w", j, err)
		}
	}
	return buf, nil
}

// DecodeFrame decodes one dataframe off buf, returning it and the
// remaining bytes. The frame gets a fresh schema-induction cache, so lazy
// typing memoizes per decoded band exactly as it does per parsed band.
func DecodeFrame(buf []byte) (*core.DataFrame, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("cluster: frame truncated (header)")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < n {
		return nil, nil, fmt.Errorf("cluster: frame truncated (domains)")
	}
	domains := make([]types.Domain, n)
	for j := 0; j < n; j++ {
		domains[j] = types.Domain(buf[j])
	}
	buf = buf[n:]
	rowLab, buf, err := vector.DecodeWire(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: decode row labels: %w", err)
	}
	colLab := make([]types.Value, n)
	for j := 0; j < n; j++ {
		colLab[j], buf, err = types.DecodeValue(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: decode column label %d: %w", j, err)
		}
	}
	cols := make([]vector.Vector, n)
	for j := 0; j < n; j++ {
		cols[j], buf, err = vector.DecodeWire(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: decode column %d: %w", j, err)
		}
	}
	df, err := core.Build(cols, rowLab, colLab, domains, schema.NewCache())
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: rebuild frame: %w", err)
	}
	return df, buf, nil
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
