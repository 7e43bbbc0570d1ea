package modin

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// labelStatements are statements whose results carry positional row labels
// that MODIN makes as sequences (vector.Range) — a data-column join's
// renumbered labels, a groupby's restore over routed rows and over routed
// states, a filter and a sort keeping their input's labels (a scan's band
// labels when the input is streamed), FROMLABELS moving the labels into a
// column — over stateFrame's columns.
func labelStatements(in algebra.Node) map[string]algebra.Node {
	right := core.MustNew([]string{"ik", "tag"}, []vector.Vector{
		vector.NewInt([]int64{3, 0, 4, 1, 3}, nil), vector.NewObject([]string{"c", "a", "e", "b", "c2"}, nil),
	})
	join := func(kind expr.JoinKind) algebra.Node {
		return &algebra.Join{Left: in, Right: &algebra.Source{DF: right, Name: "right"}, Kind: kind, On: []string{"ik"}}
	}
	return map[string]algebra.Node{
		"join/inner":      join(expr.JoinInner),
		"join/left":       join(expr.JoinLeft),
		"groupby/rows":    &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"ik"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}}}},
		"groupby/states":  &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"ok"}, Aggs: []expr.AggSpec{{Col: "iv", Agg: expr.AggCount}}}},
		"groupby/labels":  &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"sv"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}}, AsLabels: true}},
		"filter":          &algebra.Selection{Input: in, Where: expr.WhereNotNull("iv")},
		"sort":            &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "iv"}}},
		"fromlabels":      &algebra.FromLabels{Input: &algebra.Selection{Input: in, Where: expr.WhereNotNull("ok")}, Label: "pos"},
		"join/fromlabels": &algebra.FromLabels{Input: join(expr.JoinInner), Label: "pos"},
	}
}

// TestPositionalLabelsMatchEager runs labelStatements on MODIN and eager and
// requires the results bit for bit alike (bitDiff: labels, domains, float
// bits) at 1, 2 and 7 bands, on a one-worker pool, with every shuffled
// piece spilled, and streamed from a CSV scan in bands of 1, 7 and 64
// rows; and, over each collected MODIN result, a second statement — a
// groupby, a sort, FROMLABELS — re-banding it.
func TestPositionalLabelsMatchEager(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	runs := map[string][]Option{
		"bands=1": {WithBands(1)},
		"bands=2": {WithBands(2)},
		"bands=7": {WithBands(7)},
		"1worker": {WithPool(one), WithBands(2)},
		"spill":   {WithBands(3), WithShuffleSpillBudget(1)},
	}
	second := map[string]func(algebra.Node) algebra.Node{
		"groupby": func(in algebra.Node) algebra.Node {
			return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"ik"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize}}}}
		},
		"sort": func(in algebra.Node) algebra.Node {
			return &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "sv", Desc: true}}}
		},
		"fromlabels": func(in algebra.Node) algebra.Node { return &algebra.FromLabels{Input: in, Label: "again"} },
	}
	check := func(t *testing.T, e *Engine, plan algebra.Node, streamed bool) *core.DataFrame {
		t.Helper()
		want, err := eager.New().Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if d := bitDiff(want, got, streamed); d != "" {
			t.Fatalf("%s\nmodin:\n%s\neager:\n%s", d, got, want)
		}
		return got
	}
	df := stateFrame(150)
	for name, opts := range runs {
		for stmt, plan := range labelStatements(&algebra.Source{DF: df, Name: "state"}) {
			t.Run(name+"/"+stmt, func(t *testing.T) {
				e := New(opts...)
				defer e.ReleaseSpill()
				res := check(t, e, plan, false)
				for s, next := range second {
					if stmt == "groupby/rows" && s == "sort" || stmt == "groupby/states" && s != "fromlabels" || stmt == "groupby/labels" && s != "fromlabels" {
						continue // the result has no ik or sv column
					}
					// A join leaves ok and tag untyped, whose declared
					// domains depend on the bands a statement reads them in
					// (TestUntypedStringDomainsDependOnBands): compare as
					// bitDiff compares a streamed result, labels exactly.
					check(t, e, next(&algebra.Source{DF: res, Name: "collected"}), true)
				}
			})
		}
	}
	// Streamed, fv holds floats that read back as floats from a band of any
	// size: no -0, which a one-row band reads as the Int 0, and no NaN.
	fv := make([]float64, df.NRows())
	for i := range fv {
		fv[i] = []float64{0.5, -2.25, 1e300, 0.1, 7}[i%5]
	}
	df, err := df.WithColumn(df.ColIndex("fv"), vector.NewFloat(fv, nil), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	for _, bandRows := range []int{1, 7, 64} {
		for stmt, plan := range labelStatements(scanOver(t, df, bandRows)) {
			t.Run(fmt.Sprintf("streamed/band=%d/%s", bandRows, stmt), func(t *testing.T) {
				e := New(WithBands(3))
				defer e.ReleaseSpill()
				check(t, e, plan, true)
			})
		}
	}
}

// TestSortTakesSequenceLabelsInPlace sorts a frame whose row labels are a
// positional sequence, at 1 and 3 bands: the sort's partition views and
// merge read the labels' cells as computed, making no flat copy of them.
func TestSortTakesSequenceLabelsInPlace(t *testing.T) {
	df := stateFrame(400)
	df.TypedCol(df.ColIndex("iv"))
	plan := &algebra.Sort{Input: &algebra.Source{DF: df, Name: "state"}, Order: expr.SortOrder{{Col: "iv"}}}
	for _, bands := range []int{1, 3} {
		e := New(WithBands(bands))
		before := vector.FlattenedRows()
		if _, err := e.Execute(plan); err != nil {
			t.Fatal(err)
		}
		if n := vector.FlattenedRows() - before; n != 0 {
			t.Errorf("bands=%d: the sort flattened %d rows", bands, n)
		}
	}
}
