package stats

import (
	"testing"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

func intFrame(t *testing.T, rows, distinct int) *core.DataFrame {
	t.Helper()
	data := make([]int64, rows)
	var nulls []bool
	for i := range data {
		data[i] = int64(i % distinct)
		if i%29 == 0 {
			if nulls == nil {
				nulls = make([]bool, rows)
			}
			nulls[i] = true
		}
	}
	df, err := core.Build(
		[]vector.Vector{vector.NewInt(data, nulls), vector.NewFloat(make([]float64, rows), nil)},
		vector.Range(0, rows),
		[]types.Value{types.String("k"), types.String("v")},
		nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return df
}

func TestCollectColumn(t *testing.T) {
	rows, distinct := 4000, 900
	df := intFrame(t, rows, distinct)
	c, err := CollectColumn(df.TypedCol(0), DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count != int64(rows) {
		t.Errorf("count = %d", c.Count)
	}
	wantNulls := int64((rows + 28) / 29)
	if c.Nulls != wantNulls {
		t.Errorf("nulls = %d, want %d", c.Nulls, wantNulls)
	}
	if c.Min.Int() != 0 || c.Max.Int() != int64(distinct-1) {
		t.Errorf("range = [%v, %v]", c.Min, c.Max)
	}
	// Nulled rows remove a few distinct values' only occurrence? No — every
	// key repeats, so the distinct count stays `distinct`. ~1.6% HLL error
	// at precision 12; allow 5%.
	if e := c.NDV.Estimate(); e < 0.95*float64(distinct) || e > 1.05*float64(distinct) {
		t.Errorf("ndv = %v, want ≈%d", e, distinct)
	}
}

// TestCollectNamesColumns: nil collects every column, a list collects just
// those, and an unknown name fails without a table.
func TestCollectNamesColumns(t *testing.T) {
	df := intFrame(t, 300, 40)
	all, err := Collect(df, nil, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if all.Rows != 300 || len(all.Cols) != 2 || all.Cols["k"] == nil || all.Cols["v"] == nil {
		t.Errorf("Collect(nil) = %d rows, columns %v", all.Rows, all.Cols)
	}
	some, err := Collect(df, []string{"v"}, DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if len(some.Cols) != 1 || some.Cols["v"] == nil {
		t.Errorf("Collect([v]) columns = %v", some.Cols)
	}
	if tab, err := Collect(df, []string{"k", "ghost"}, DefaultPrecision); err == nil || tab != nil {
		t.Errorf("unknown column: table %v, error %v", tab, err)
	}
}

// TestCollectColumnAllNull: a column with no non-null value has a null range
// and an empty sketch.
func TestCollectColumnAllNull(t *testing.T) {
	rows := 50
	nulls := make([]bool, rows)
	for i := range nulls {
		nulls[i] = true
	}
	c, err := CollectColumn(vector.NewInt(make([]int64, rows), nulls), DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	if c.Count != int64(rows) || c.Nulls != int64(rows) {
		t.Errorf("count/nulls = %d/%d, want %d/%d", c.Count, c.Nulls, rows, rows)
	}
	if !c.Min.IsNull() || !c.Max.IsNull() {
		t.Errorf("range = [%v, %v], want nulls", c.Min, c.Max)
	}
	if e := c.NDV.Estimate(); e != 0 {
		t.Errorf("ndv = %v, want 0", e)
	}
}
