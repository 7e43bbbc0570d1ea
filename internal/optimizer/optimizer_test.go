package optimizer

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/types"
)

func source(t *testing.T) *algebra.Source {
	t.Helper()
	return &algebra.Source{DF: core.MustFromRecords(
		[]string{"k", "v"},
		[][]any{{"b", 1}, {"a", 2}, {"b", 3}, {"a", 4}},
	), Name: "t"}
}

// runBoth executes the plan before and after optimization and requires the
// same result — the soundness property every rule must satisfy.
func runBoth(t *testing.T, plan algebra.Node, wantRules ...string) *core.DataFrame {
	t.Helper()
	engine := eager.New()
	before, err := engine.Execute(plan)
	if err != nil {
		t.Fatalf("before: %v", err)
	}
	opt, fired := Optimize(plan, Default())
	after, err := engine.Execute(opt)
	if err != nil {
		t.Fatalf("after: %v", err)
	}
	if !before.Equal(after) {
		t.Fatalf("rewrite changed semantics:\nbefore:\n%s\nafter:\n%s\nplan:\n%s", before, after, algebra.Render(opt))
	}
	for _, want := range wantRules {
		found := false
		for _, f := range fired {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("rule %q did not fire; fired = %v", want, fired)
		}
	}
	return after
}

func TestDoubleTransposeElimination(t *testing.T) {
	plan := &algebra.Transpose{Input: &algebra.Transpose{Input: source(t)}}
	runBoth(t, plan, "double-transpose-elimination")
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.Source); !ok {
		t.Errorf("T∘T should reduce to the source, got:\n%s", algebra.Render(opt))
	}
}

func TestDoubleTransposeKeepsDeclaredSchema(t *testing.T) {
	plan := &algebra.Transpose{Input: &algebra.Transpose{
		Input:  source(t),
		Schema: []types.Domain{types.Object, types.Object, types.Object, types.Object},
	}}
	_, fired := Optimize(plan, Default())
	for _, f := range fired {
		if f == "double-transpose-elimination" {
			t.Error("declared inner schema must block elimination")
		}
	}
}

func TestTransposePullUpEnablesCancellation(t *testing.T) {
	// T(MAP_e(T(x))) — the columnwise-operation idiom of Section 5.2.2 —
	// should collapse to MAP_e(x): no physical transpose at all.
	inner := &algebra.Map{
		Input: &algebra.Transpose{Input: source(t)},
		Fn:    algebra.FillNAFn(types.String("-")),
	}
	plan := &algebra.Transpose{Input: inner}
	runBoth(t, plan, "transpose-pull-up", "double-transpose-elimination")
	opt, _ := Optimize(plan, Default())
	if strings.Contains(algebra.Render(opt), "TRANSPOSE") {
		t.Errorf("both transposes should be gone:\n%s", algebra.Render(opt))
	}
}

func TestFuseMaps(t *testing.T) {
	plan := &algebra.Map{
		Input: &algebra.Map{Input: source(t), Fn: algebra.FillNAFn(types.IntValue(0))},
		Fn:    algebra.StrUpperFn(),
	}
	runBoth(t, plan, "map-fusion")
	opt, _ := Optimize(plan, Default())
	if algebra.CountNodes(opt) != 2 {
		t.Errorf("fused plan should be MAP(SOURCE):\n%s", algebra.Render(opt))
	}
}

func TestInduceRules(t *testing.T) {
	// INDUCE over a declared-output MAP is elided.
	plan := &algebra.Induce{Input: &algebra.Map{Input: source(t), Fn: algebra.IsNullFn()}}
	runBoth(t, plan, "elide-induce-declared-map")

	// INDUCE(INDUCE(x)) collapses.
	plan2 := &algebra.Induce{Input: &algebra.Induce{Input: source(t)}}
	runBoth(t, plan2, "collapse-induce")

	// SELECTION(INDUCE(x)) defers induction past the filter.
	plan3 := &algebra.Selection{
		Input: &algebra.Induce{Input: source(t)},
		Pred:  expr.ColEquals("k", types.String("a")),
		Desc:  "k==a",
	}
	runBoth(t, plan3, "defer-induce")
	opt, _ := Optimize(plan3, Default())
	if _, ok := opt.(*algebra.Induce); !ok {
		t.Errorf("induce should be outermost:\n%s", algebra.Render(opt))
	}
}

func TestPushProjectionThroughMap(t *testing.T) {
	plan := &algebra.Projection{
		Input: &algebra.Map{Input: source(t), Fn: algebra.FillNAFn(types.IntValue(0))},
		Cols:  []string{"v"},
	}
	runBoth(t, plan, "push-projection-through-map")
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.Map); !ok {
		t.Errorf("map should be outermost:\n%s", algebra.Render(opt))
	}
}

func TestPushProjectionThroughSelection(t *testing.T) {
	w := expr.WhereNotNull("v")
	plan := &algebra.Projection{
		Input: &algebra.Selection{Input: source(t), Where: w, Pred: w.Predicate(), Desc: "v notnull"},
		Cols:  []string{"v"},
	}
	runBoth(t, plan, "push-projection-through-selection")
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.Selection); !ok {
		t.Errorf("selection should be outermost:\n%s", algebra.Render(opt))
	}

	// A predicate reading a dropped column blocks the push.
	wk := expr.WhereNotNull("k")
	blocked := &algebra.Projection{
		Input: &algebra.Selection{Input: source(t), Where: wk, Pred: wk.Predicate(), Desc: "k notnull"},
		Cols:  []string{"v"},
	}
	opt2, fired := Optimize(blocked, Default())
	for _, f := range fired {
		if f == "push-projection-through-selection" {
			t.Errorf("predicate over dropped column must block the push:\n%s", algebra.Render(opt2))
		}
	}

	// Opaque predicates may read anything: never pushed.
	opaque := &algebra.Projection{
		Input: &algebra.Selection{Input: source(t), Pred: expr.ColNotNull("v"), Desc: "opaque"},
		Cols:  []string{"v"},
	}
	if _, fired := Optimize(opaque, Default()); len(fired) != 0 {
		t.Errorf("opaque selection must not move, fired = %v", fired)
	}
}

func TestPushProjectionThroughSort(t *testing.T) {
	plan := &algebra.Projection{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "v", Desc: true}}},
		Cols:  []string{"v"},
	}
	runBoth(t, plan, "push-projection-through-sort")
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.Sort); !ok {
		t.Errorf("sort should be outermost:\n%s", algebra.Render(opt))
	}

	// Sorting by a dropped key blocks the push.
	blocked := &algebra.Projection{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "k"}}},
		Cols:  []string{"v"},
	}
	if _, fired := Optimize(blocked, Default()); len(fired) != 0 {
		t.Errorf("sort key outside the projection must block, fired = %v", fired)
	}

	// Label sorts do not consume data columns but establish order from
	// metadata; the push is still sound only for data-column sorts here.
	byLabels := &algebra.Projection{
		Input: &algebra.Sort{Input: source(t), ByLabels: true},
		Cols:  []string{"v"},
	}
	if _, fired := Optimize(byLabels, Default()); len(fired) != 0 {
		t.Errorf("label sorts must not move, fired = %v", fired)
	}
}

func TestPushProjectionThroughRename(t *testing.T) {
	plan := &algebra.Projection{
		Input: &algebra.Rename{Input: source(t), Mapping: map[string]string{"v": "value", "k": "key"}},
		Cols:  []string{"value"},
	}
	runBoth(t, plan, "push-projection-through-rename")
	opt, _ := Optimize(plan, Default())
	r, ok := opt.(*algebra.Rename)
	if !ok {
		t.Fatalf("rename should be outermost:\n%s", algebra.Render(opt))
	}
	if len(r.Mapping) != 1 || r.Mapping["v"] != "value" {
		t.Errorf("rename should narrow to the surviving column, got %v", r.Mapping)
	}

	// Identity-surviving projection: the rename disappears entirely.
	ident := &algebra.Projection{
		Input: &algebra.Rename{Input: source(t), Mapping: map[string]string{"k": "key"}},
		Cols:  []string{"v"},
	}
	runBoth(t, ident, "push-projection-through-rename")
	opt2, _ := Optimize(ident, Default())
	if _, ok := opt2.(*algebra.Projection); !ok {
		t.Errorf("no surviving rename expected:\n%s", algebra.Render(opt2))
	}

	// Projecting a renamed-away label must keep erroring: no push.
	away := &algebra.Projection{
		Input: &algebra.Rename{Input: source(t), Mapping: map[string]string{"v": "value"}},
		Cols:  []string{"v"},
	}
	if _, fired := Optimize(away, Default()); len(fired) != 0 {
		t.Errorf("renamed-away projection must not move, fired = %v", fired)
	}

	// A rename target shadowing an existing label creates duplicate
	// post-rename labels: the projection resolves to the FIRST occurrence
	// (the untouched k), which inversion cannot reproduce — the rule must
	// decline, and the optimized plan must return identical data.
	shadow := &algebra.Projection{
		Input: &algebra.Rename{Input: source(t), Mapping: map[string]string{"v": "k"}},
		Cols:  []string{"k"},
	}
	runBoth(t, shadow)
	if _, fired := Optimize(shadow, Default()); len(fired) != 0 {
		t.Errorf("shadowing rename must not move, fired = %v", fired)
	}
}

func TestCollapseProjections(t *testing.T) {
	plan := &algebra.Projection{
		Input: &algebra.Projection{Input: source(t), Cols: []string{"k", "v"}},
		Cols:  []string{"v"},
	}
	runBoth(t, plan, "collapse-projections")
	opt, _ := Optimize(plan, Default())
	if algebra.CountNodes(opt) != 2 {
		t.Errorf("stacked projections should collapse:\n%s", algebra.Render(opt))
	}

	// The outer projection referencing a column the inner dropped must keep
	// failing, so the collapse declines.
	blocked := &algebra.Projection{
		Input: &algebra.Projection{Input: source(t), Cols: []string{"v"}},
		Cols:  []string{"k"},
	}
	if _, fired := Optimize(blocked, Default()); len(fired) != 0 {
		t.Errorf("collapse must preserve the inner projection's error, fired = %v", fired)
	}
}

func TestSortedGroupBy(t *testing.T) {
	plan := &algebra.GroupBy{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "k"}}},
		Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
		},
	}
	runBoth(t, plan, "sorted-groupby")
	opt, _ := Optimize(plan, Default())
	if !opt.(*algebra.GroupBy).Spec.Sorted {
		t.Error("groupby should be marked sorted")
	}

	// Descending sort must not mark sorted.
	plan2 := &algebra.GroupBy{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "k", Desc: true}}},
		Spec:  plan.Spec,
	}
	opt2, _ := Optimize(plan2, Default())
	if opt2.(*algebra.GroupBy).Spec.Sorted {
		t.Error("descending sort must not enable streaming groupby")
	}
}

func TestOptimizeReachesFixpoint(t *testing.T) {
	// A deep tower of transposes reduces fully.
	var plan algebra.Node = source(t)
	for i := 0; i < 8; i++ {
		plan = &algebra.Transpose{Input: plan}
	}
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.Source); !ok {
		t.Errorf("8 transposes should cancel:\n%s", algebra.Render(opt))
	}
}

func TestEstimates(t *testing.T) {
	src := source(t) // 4x2
	if e := EstimateNode(src); e.Rows != 4 || e.Cols != 2 {
		t.Errorf("source estimate = %+v", e)
	}
	tr := &algebra.Transpose{Input: src}
	if e := EstimateNode(tr); e.Rows != 2 || e.Cols != 4 {
		t.Errorf("transpose estimate = %+v (axes must swap exactly)", e)
	}
	sel := &algebra.Selection{Input: src, Pred: expr.ColNotNull("k"), Desc: "x"}
	if e := EstimateNode(sel); e.Rows != 2 {
		t.Errorf("selection estimate = %+v", e)
	}
	join := &algebra.Join{Left: src, Right: src, Kind: expr.JoinCross}
	if e := EstimateNode(join); e.Rows != 16 || e.Cols != 4 {
		t.Errorf("cross estimate = %+v", e)
	}
	lim := &algebra.Limit{Input: src, N: -2}
	if e := EstimateNode(lim); e.Rows != 2 {
		t.Errorf("limit estimate = %+v", e)
	}
	if EstimateNode(&algebra.FromLabels{Input: src, Label: "x"}).Cols != 3 {
		t.Error("fromlabels estimate wrong")
	}
	if EstimateNode(&algebra.ToLabels{Input: src, Col: "k"}).Cols != 1 {
		t.Error("tolabels estimate wrong")
	}
	gb := &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}}}}
	if e := EstimateNode(gb); e.Rows != 1 || e.Cols != 2 {
		t.Errorf("groupby estimate = %+v", e)
	}
	inner := &algebra.Join{Left: src, Right: src, Kind: expr.JoinInner, On: []string{"k"}}
	if e := EstimateNode(inner); e.Rows != 4 || e.Cols != 3 {
		t.Errorf("equi-join estimate = %+v", e)
	}
}

func TestExplainRendering(t *testing.T) {
	plan := &algebra.Transpose{Input: &algebra.Transpose{Input: source(t)}}
	out := Explain(plan, Default())
	if !strings.Contains(out, "before:") || !strings.Contains(out, "after:") ||
		!strings.Contains(out, "double-transpose-elimination") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestLimitSortToTopK(t *testing.T) {
	plan := &algebra.Limit{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "v", Desc: true}}},
		N:     2,
	}
	runBoth(t, plan, "limit-sort-to-topk")
	opt, _ := Optimize(plan, Default())
	if _, ok := opt.(*algebra.TopK); !ok {
		t.Errorf("plan should fuse to TOPK:\n%s", algebra.Render(opt))
	}
	if e := EstimateNode(opt); e.Rows != 2 {
		t.Errorf("topk estimate = %+v", e)
	}
	// Label sorts and suffix limits behave too.
	tail := &algebra.Limit{
		Input: &algebra.Sort{Input: source(t), Order: expr.SortOrder{{Col: "v"}}},
		N:     -2,
	}
	runBoth(t, tail, "limit-sort-to-topk")
	byLabels := &algebra.Limit{Input: &algebra.Sort{Input: source(t), ByLabels: true}, N: 2}
	if _, fired := Optimize(byLabels, Default()); len(fired) != 0 {
		t.Error("label sorts must not fuse")
	}
}
