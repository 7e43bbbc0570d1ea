package modin

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/vector"
)

// TestSecondStatementOverCollectedResult runs a groupby and a sort over a
// collected 7-band result, whose columns keep the bands' storage, and over
// a flat copy of it. At 7 bands each band of the second statement is one
// of the result's pieces: nothing is flattened and the statement allocates
// no more than over the flat copy. At 3 bands the bands cross pieces, and
// only the columns a statement reads as typed storage are flattened: the
// groupby's key and aggregate, the sort's keys (its merge takes the other
// columns from the pieces). Both read cell for cell as over the flat copy.
func TestSecondStatementOverCollectedResult(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	fact := shuffledJoinPlan().Left
	res, err := New(WithPool(one), WithBands(7)).Execute(&algebra.Sort{Input: fact, Order: expr.SortOrder{{Col: "amount"}}})
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]vector.Vector, res.NCols())
	for j := range cols {
		if len(vector.Pieces(res.Col(j))) != 7 {
			t.Fatalf("column %d of the result holds %d pieces, want its 7 bands", j, len(vector.Pieces(res.Col(j))))
		}
		cols[j] = vector.Concat(res.Col(j))
	}
	flat := core.MustBuild(cols, vector.Concat(res.RowLabels()), res.ColLabels(), res.Domains(), nil)
	// Each statement and the number of columns it flattens.
	statements := map[string]struct {
		node  func(algebra.Node) algebra.Node
		reads int
	}{
		"groupby": {func(in algebra.Node) algebra.Node {
			return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "qty", Agg: expr.AggSum}}}}
		}, 2},
		"sort": {func(in algebra.Node) algebra.Node {
			return &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "region"}, {Col: "key", Desc: true}}}
		}, 2},
	}
	for _, bands := range []int{7, 3} {
		e := New(WithPool(one), WithBands(bands))
		for name, stmt := range statements {
			t.Run(fmt.Sprintf("%s/bands=%d", name, bands), func(t *testing.T) {
				over, overFlat := stmt.node(&algebra.Source{DF: res, Name: "res"}), stmt.node(&algebra.Source{DF: flat, Name: "flat"})
				before := vector.FlattenedRows()
				got, err := e.Execute(over)
				if err != nil {
					t.Fatal(err)
				}
				flattened := vector.FlattenedRows() - before
				t.Logf("flattened %d rows", flattened)
				want, err := e.Execute(overFlat)
				if err != nil {
					t.Fatal(err)
				}
				// A cache holds each column's parse for bitDiff's cell
				// reads; without one, a raw column that induces Category
				// is parsed again for every cell read.
				if d := bitDiff(want.WithCache(schema.NewCache()), got.WithCache(schema.NewCache()), false); d != "" {
					t.Fatal(d)
				}
				if most := int64(res.NRows() * stmt.reads); flattened > most {
					t.Errorf("flattened %d rows, more than the %d of the %d columns it reads once", flattened, most, stmt.reads)
				}
				if bands != 7 {
					return
				}
				if flattened != 0 {
					t.Errorf("flattened %d rows re-banding at the result's own bands", flattened)
				}
				if m, f := allocBytes(t, e, over), allocBytes(t, e, overFlat); float64(m) > 1.05*float64(f) {
					t.Errorf("allocated %d bytes over the result, %d over its flat copy", m, f)
				}
			})
		}
	}
}

// TestSkewedResultIsCutEvenly re-bands a 7-band join result whose heavy
// key put most rows in one band: the left input's first band holds only key
// 0, which matches ten right rows, so that band's piece holds ten times
// the rows of each other's. A second statement cuts the result into even
// bands rather than inheriting the skew, and reads cell for cell as over a
// flat copy.
func TestSkewedResultIsCutEvenly(t *testing.T) {
	const rows, keys, fanout = 7_000, 1_000, 10
	key, val := make([]int64, rows), make([]float64, rows)
	for i := range key {
		if i >= rows/7 {
			key[i] = 1 + int64(i%(keys-1))
		}
		val[i] = float64(i)
	}
	dimKey, weight := make([]int64, keys-1+fanout), make([]float64, keys-1+fanout)
	for i := range dimKey {
		dimKey[i], weight[i] = max(int64(i-fanout+1), 0), float64(i)/2
	}
	join := &algebra.Join{
		Left:  &algebra.Source{DF: core.MustNew([]string{"key", "val"}, []vector.Vector{vector.NewInt(key, nil), vector.NewFloat(val, nil)}), Name: "fact"},
		Right: &algebra.Source{DF: core.MustNew([]string{"key", "weight"}, []vector.Vector{vector.NewInt(dimKey, nil), vector.NewFloat(weight, nil)}), Name: "dim"},
		Kind:  expr.JoinInner,
		On:    []string{"key"},
	}
	one := exec.NewPool(1)
	defer one.Close()
	e := New(WithPool(one), WithBands(7))
	res, err := e.Execute(join)
	if err != nil {
		t.Fatal(err)
	}
	n, even := res.NRows(), res.NRows()/7
	pieces := vector.Pieces(res.Col(0)) // the labels are one positional sequence
	most := 0
	for _, p := range pieces {
		most = max(most, p.Len())
	}
	if len(pieces) != 7 || most < 2*even {
		t.Fatalf("result of %d rows in %d pieces, the largest %d: want 7 pieces, one of them skewed", n, len(pieces), most)
	}
	bands := partition.New(res, partition.Rows, 7)
	for r := range bands.RowBands() {
		band, err := bands.RowBand(r)
		if err != nil {
			t.Fatal(err)
		}
		if l := band.NRows(); l < even || l > even+1 {
			t.Errorf("band %d holds %d rows, want an even %d of %d", r, l, even, n)
		}
	}
	cols := make([]vector.Vector, res.NCols())
	for j := range cols {
		cols[j] = vector.Concat(res.Col(j))
	}
	flat := core.MustBuild(cols, vector.Concat(res.RowLabels()), res.ColLabels(), res.Domains(), nil)
	stmt := func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggSum}}}}
	}
	got, err := e.Execute(stmt(&algebra.Source{DF: res, Name: "res"}))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Execute(stmt(&algebra.Source{DF: flat, Name: "flat"}))
	if err != nil {
		t.Fatal(err)
	}
	if d := bitDiff(want.WithCache(schema.NewCache()), got.WithCache(schema.NewCache()), false); d != "" {
		t.Fatal(d)
	}
}
