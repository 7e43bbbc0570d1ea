// Package stats collects lightweight per-column statistics: row count, null
// count, min/max, and an HLL distinct-value sketch. Everything is computed
// bulk-wise from the typed storage in internal/vector (one hash pass per
// column, no boxed values) — the size-estimation inputs Section 5.2.3
// points at for a planner.
package stats

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sketch"
	"repro/internal/types"
	"repro/internal/vector"
)

// DefaultPrecision is the HLL precision for column sketches: 4 KiB of
// registers per column, ~1.6% standard error.
const DefaultPrecision uint8 = 12

// hashSeed is fixed so every collection of the same values observes
// identical hashes.
const hashSeed uint64 = 0x5ad1f1c3a94b62e7

// Col summarizes one column: value counts, the observed value range, and a
// distinct-count sketch.
type Col struct {
	Count int64 // rows observed, nulls included
	Nulls int64
	Min   types.Value // null when no non-null value was observed
	Max   types.Value
	NDV   *sketch.HLL // nil when sketching was skipped
}

// Table carries the statistics of one frame: total rows plus per-column
// summaries, keyed by column name.
type Table struct {
	Rows int64
	Cols map[string]*Col
}

// New returns an empty table for a frame with the given row count.
func New(rows int64) *Table {
	return &Table{Rows: rows, Cols: make(map[string]*Col)}
}

// CollectColumn summarizes one column in a single typed pass: the hash
// kernel feeds the sketch directly (AddHash), min/max come from the bulk
// MinMax kernel, and null counting reuses the vector mask scan.
func CollectColumn(v vector.Vector, precision uint8) (*Col, error) {
	h, err := sketch.New(precision)
	if err != nil {
		return nil, err
	}
	n := v.Len()
	c := &Col{Count: int64(n), Nulls: int64(vector.NullCount(v)), NDV: h}
	c.Min, c.Max = vector.MinMax(v)
	hashes := make([]uint64, n)
	vector.Hash(v, hashSeed, hashes)
	for i, x := range hashes {
		if v.IsNull(i) {
			continue
		}
		h.AddHash(x)
	}
	return c, nil
}

// Collect summarizes the named columns of df (all columns when cols is nil)
// into a fresh table.
func Collect(df *core.DataFrame, cols []string, precision uint8) (*Table, error) {
	if cols == nil {
		cols = df.ColNames()
	}
	t := New(int64(df.NRows()))
	for _, name := range cols {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("stats: unknown column %q", name)
		}
		c, err := CollectColumn(df.TypedCol(j), precision)
		if err != nil {
			return nil, err
		}
		t.Cols[name] = c
	}
	return t, nil
}
