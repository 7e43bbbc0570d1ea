package modin

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// bitDiff describes the first difference between two results, or returns
// "": shape, column labels, declared domains, row labels and their domain,
// every cell's domain and nullness, float cells by their bits, and COLLECT
// cells as sub-frames compared the same way, row labels included.
// streamed compares a result over a CSV scan, whose bands each induce
// their own column types (TestUntypedStringDomainsDependOnBands): declared
// domains are not compared and Object and Category name the same cells.
func bitDiff(want, got *core.DataFrame, streamed bool) string {
	dom := func(d types.Domain) types.Domain {
		if streamed && d == types.Category {
			return types.Object
		}
		return d
	}
	switch {
	case want.NRows() != got.NRows() || want.NCols() != got.NCols():
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NRows(), got.NCols(), want.NRows(), want.NCols())
	case !slices.EqualFunc(want.ColLabels(), got.ColLabels(), types.Value.Equal):
		return fmt.Sprintf("columns %v, want %v", got.ColNames(), want.ColNames())
	case !streamed && !slices.Equal(want.Domains(), got.Domains()):
		return fmt.Sprintf("domains %v, want %v", got.Domains(), want.Domains())
	case dom(want.RowLabels().Domain()) != dom(got.RowLabels().Domain()) || !vector.Equal(want.RowLabels(), got.RowLabels()):
		return fmt.Sprintf("row labels %v, want %v", got.RowLabels(), want.RowLabels())
	}
	for j := 0; j < want.NCols(); j++ {
		for i := 0; i < want.NRows(); i++ {
			w, g := want.Value(i, j), got.Value(i, j)
			if dom(w.Domain()) != dom(g.Domain()) || w.IsNull() != g.IsNull() {
				return fmt.Sprintf("cell (%d, %d) = %#v, want %#v", i, j, g, w)
			}
			switch {
			case w.IsNull():
			case w.Domain() == types.Composite:
				if d := bitDiff(w.CompositePayload().(*core.DataFrame), g.CompositePayload().(*core.DataFrame), streamed); d != "" {
					return fmt.Sprintf("cell (%d, %d): %s", i, j, d)
				}
			case w.Domain() == types.Float:
				if math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
					return fmt.Sprintf("cell (%d, %d) = %v, want %v (bits differ)", i, j, g, w)
				}
			case !w.Equal(g):
				return fmt.Sprintf("cell (%d, %d) = %#v, want %#v", i, j, g, w)
			}
		}
	}
	return ""
}

// relabeled are stateFrame's rows under labels that are not positions:
// the positional ones, reversed Int labels, String labels, and Int labels
// that repeat.
func relabeled(t *testing.T, df *core.DataFrame) map[string]*core.DataFrame {
	t.Helper()
	n := df.NRows()
	rev, dup, str := make([]int64, n), make([]int64, n), make([]string, n)
	for i := range rev {
		rev[i], dup[i], str[i] = int64(n-1-i), int64(i/3), fmt.Sprintf("r%03d", (i*7)%n)
	}
	out := map[string]*core.DataFrame{"positional": df}
	for name, labels := range map[string]vector.Vector{
		"reversed": vector.NewInt(rev, nil), "string": vector.NewObjectFromStrings(str), "duplicate": vector.NewInt(dup, nil),
	} {
		f, err := df.WithRowLabels(labels)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = f
	}
	return out
}

// orderGroupBys are row-routing and state-routing specs over stateFrame's
// columns: float and int SUM, MEAN, the COUNT/SIZE/MIN/MAX state path,
// COLLECT alone and beside a SUM and a MIN, keyless, and as labels.
var orderGroupBys = []expr.GroupBySpec{
	{Keys: []string{"ik"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}, {Col: "iv", Agg: expr.AggSum}}},
	{Keys: []string{"dk"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggMean}, {Col: "iv", Agg: expr.AggMean}}},
	{Keys: []string{"ik", "ok"}, Aggs: stateAggs},
	{Keys: []string{"tk"}, Aggs: []expr.AggSpec{{Col: "sv", Agg: expr.AggCollect, As: "rows"}}},
	{Keys: []string{"ok"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}, {Col: "iv", Agg: expr.AggCollect, As: "rows"}, {Col: "sv", Agg: expr.AggMin}}},
	{Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}, {Col: "iv", Agg: expr.AggCount}}},
	{Aggs: stateAggs},
	{Keys: []string{"dk", "ik"}, Aggs: []expr.AggSpec{{Col: "fv", Agg: expr.AggSum}, {Agg: expr.AggSize}}, AsLabels: true},
	{Keys: []string{"ok"}, Aggs: []expr.AggSpec{{Col: "iv", Agg: expr.AggCollect, As: "rows"}}, AsLabels: true},
}

// A partitioned groupby orders its groups by their first rows' positions,
// never by the input's row labels: on inputs whose labels are reversed,
// strings or repeated it equals eager bit for bit — float sums, group
// order, positional labels, and COLLECT sub-frames holding the input's own
// labels — at 1, 2 and 7 bands, on a one-worker pool, with every piece
// spilled, with row hashes narrowed to one bit, and streamed in bands of
// 1, 7 and 64 rows.
func TestGroupOrderComesFromPositions(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	runs := []struct {
		name string
		opts []Option
		mask uint64
	}{
		{"bands=1", []Option{WithBands(1)}, 0},
		{"bands=2", []Option{WithBands(2)}, 0},
		{"bands=7", []Option{WithBands(7)}, 0},
		{"1worker", []Option{WithPool(one), WithBands(2)}, 0},
		{"spill", []Option{WithBands(3), WithShuffleSpillBudget(1)}, 0},
		{"collide/bands=2", []Option{WithBands(2)}, 1},
		{"collide/bands=7", []Option{WithBands(7), WithShuffleSpillBudget(1)}, 1},
	}
	check := func(t *testing.T, e *Engine, in algebra.Node, spec expr.GroupBySpec, streamed bool) {
		t.Helper()
		plan := &algebra.GroupBy{Input: in, Spec: spec}
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
	}
	for label, df := range relabeled(t, stateFrame(150)) {
		for _, run := range runs {
			for s, spec := range orderGroupBys {
				t.Run(fmt.Sprintf("%s/%s/spec%d", label, run.name, s), func(t *testing.T) {
					if run.mask != 0 {
						defer algebra.SetRowHashMaskForTesting(run.mask)()
					}
					e := New(run.opts...)
					defer e.ReleaseSpill()
					check(t, e, &algebra.Source{DF: df}, spec, false)
				})
			}
		}
	}
	// Streamed, fv holds floats that read back as floats from a band of any
	// size: no -0, which a one-row band reads as the Int 0, and no NaN.
	df := stateFrame(150)
	fv := make([]float64, df.NRows())
	for i := range fv {
		fv[i] = []float64{0.5, -2.25, 1e300, 0.1, 7}[i%5]
	}
	df, err := df.WithColumn(df.ColIndex("fv"), vector.NewFloat(fv, nil), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	for _, bandRows := range []int{1, 7, 64} {
		for s, spec := range orderGroupBys {
			t.Run(fmt.Sprintf("streamed/band=%d/spec%d", bandRows, s), func(t *testing.T) {
				e := New(WithBands(3))
				defer e.ReleaseSpill()
				check(t, e, scanOver(t, df, bandRows), spec, true)
			})
		}
	}
}

// RestoreGroupOrder refuses a bucket whose positions do not strictly
// ascend: a bucket's band-order fold can only produce ascending first
// positions, so anything else is a routing fault, reported with its bucket.
func TestRestoreRejectsUnorderedPositions(t *testing.T) {
	frame := func(vals ...int64) *core.DataFrame {
		return core.MustNew([]string{"k"}, []vector.Vector{vector.NewInt(vals, nil)})
	}
	frames := []*core.DataFrame{frame(1, 2), frame(3, 4, 5)}
	if _, err := RestoreGroupOrder(frames, [][]int64{{0, 4}, {1, 2, 3}}, false); err != nil {
		t.Fatalf("ascending positions: %v", err)
	}
	for _, bad := range [][]int64{{2, 7, 5}, {2, 7, 7}} {
		_, err := RestoreGroupOrder(frames, [][]int64{{0, 4}, bad}, false)
		if want := fmt.Sprintf("modin: group restore bucket 1: position %d of group 2 does not follow 7", bad[2]); err == nil || err.Error() != want {
			t.Errorf("positions %v: error %v, want %q", bad, err, want)
		}
	}
	if _, err := RestoreGroupOrder(frames, [][]int64{{0}, {1, 2, 3}}, false); err == nil {
		t.Error("a bucket with fewer positions than groups was restored")
	}
}
