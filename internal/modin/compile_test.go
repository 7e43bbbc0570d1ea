package modin

import (
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
)

func evenPred() expr.Predicate {
	return func(r expr.Row) bool { return r.ByName("id").Int()%2 == 0 }
}

// TestFilterMapChainCompilesToOneFusedStage is the acceptance test of the
// async-pipeline refactor: the engine no longer blocks between
// embarrassingly-parallel operators — a filter→map chain lowers to ONE
// fused stage scheduling exactly one task per band, not one gather per
// operator.
func TestFilterMapChainCompilesToOneFusedStage(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(4))
	df := testFrame(80)
	plan := &algebra.Map{
		Input: &algebra.Selection{
			Input: &algebra.Source{DF: df},
			Pred:  evenPred(),
			Desc:  "even ids",
		},
		Fn: algebra.IsNullFn(),
	}

	phys, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	fused, exchanges := physical.Stages(phys)
	if fused != 1 || exchanges != 0 {
		t.Fatalf("plan = %d fused, %d exchange stages, want 1/0:\n%s", fused, exchanges, physical.Render(phys))
	}

	sched := physical.NewScheduler(pool)
	res, err := sched.Run(phys)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sched.Gather(res).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.Stats.FusedTasks.Load(); got != 4 {
		t.Errorf("scheduled %d fused tasks for a 4-band filter→map chain, want 4 (one fused task per band)", got)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*core.DataFrame).Equal(want) {
		t.Error("fused chain result differs from eager engine")
	}
}

func TestCompileExchangeBoundaries(t *testing.T) {
	e := New(WithBands(4))
	df := testFrame(60)
	// filter → groupby → rename: kernel, exchange, kernel.
	plan := &algebra.Rename{
		Input: &algebra.GroupBy{
			Input: &algebra.Selection{Input: &algebra.Source{DF: df}, Pred: evenPred(), Desc: "even"},
			Spec: expr.GroupBySpec{
				Keys: []string{"dept"},
				Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggSum, As: "s"}},
			},
		},
		Mapping: map[string]string{"s": "total"},
	}
	phys, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	// The groupby lowers to two repartition stages: the band-routed shuffle
	// and the rank-merge restore exchange that repairs global group order.
	fused, exchanges := physical.Stages(phys)
	if fused != 2 || exchanges != 2 {
		t.Errorf("stages = %d fused, %d repartition stages, want 2/2:\n%s", fused, exchanges, physical.Render(phys))
	}
	rendered := physical.Render(phys)
	if !strings.Contains(rendered, "SHUFFLE[groupby]") {
		t.Errorf("groupby should be a shuffle stage:\n%s", rendered)
	}
	if !strings.Contains(rendered, "EXCHANGE[groupby-restore]") {
		t.Errorf("groupby shuffle should feed the order-restore exchange:\n%s", rendered)
	}
}

func TestCompileTopKFusesPartialPass(t *testing.T) {
	e := New(WithBands(4))
	df := testFrame(100)
	plan := &algebra.TopK{
		Input: &algebra.Selection{Input: &algebra.Source{DF: df}, Pred: evenPred(), Desc: "even"},
		Order: expr.SortOrder{{Col: "score", Desc: true}},
		N:     5,
	}
	phys, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	rendered := physical.Render(phys)
	// The per-band top-k pass fuses into the selection's stage; only the
	// final merge is a barrier.
	if !strings.Contains(rendered, "FUSED[selection→topk-partial]") {
		t.Errorf("topk partial pass should fuse with upstream selection:\n%s", rendered)
	}
	out, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(want) {
		t.Error("fused topk differs from eager")
	}
}

func TestCompileSharedSubplanNotFusedTwice(t *testing.T) {
	e := New(WithBands(2))
	df := testFrame(40)
	shared := &algebra.Selection{Input: &algebra.Source{DF: df}, Pred: evenPred(), Desc: "even"}
	// Both union arms extend the same sub-plan: the maps must NOT fuse into
	// the shared selection stage (that would run it per consumer) — each
	// opens its own stage over the shared one.
	plan := &algebra.Union{
		Left:  &algebra.Map{Input: shared, Fn: algebra.IsNullFn()},
		Right: &algebra.Map{Input: shared, Fn: algebra.FillNAFn(types.IntValue(0))},
	}
	phys, err := e.Compile(plan)
	if err != nil {
		t.Fatal(err)
	}
	fused, exchanges := physical.Stages(phys)
	if fused != 3 || exchanges != 1 {
		t.Errorf("stages = %d fused, %d exchanges, want 3/1 (shared selection + two maps):\n%s",
			fused, exchanges, physical.Render(phys))
	}
	bothEngines(t, plan)
}

// TestGatheredOperatorsRender pins the physical form of every operator MODIN
// runs whole: one gather exchange under the operator's own name, carrying
// its description, over the compiled inputs — and the same frame the eager
// engine computes.
func TestGatheredOperatorsRender(t *testing.T) {
	src := &algebra.Source{DF: testFrame(30), Name: "t"}
	even := &algebra.Selection{Input: src, Pred: evenPred(), Desc: "even"}
	depts := &algebra.Rename{Input: &algebra.Limit{Input: src, N: 3}, Mapping: map[string]string{"id": "id2", "val": "val2", "score": "score2"}}
	scores := &algebra.Rename{Input: &algebra.Limit{Input: &algebra.Projection{Input: src, Cols: []string{"score"}}, N: 2}, Mapping: map[string]string{"score": "s2"}}
	const source = "SOURCE[4 bands]\n"
	for _, c := range []struct {
		name string
		plan algebra.Node
		want string
	}{
		{"union", &algebra.Union{Left: src, Right: even},
			"EXCHANGE[union]\n  " + source + "  FUSED[selection]\n    " + source},
		{"difference", &algebra.Difference{Left: src, Right: even},
			"EXCHANGE[difference]\n  " + source + "  FUSED[selection]\n    " + source},
		{"dropduplicates", &algebra.DropDuplicates{Input: src, Subset: []string{"dept"}},
			"EXCHANGE[dropduplicates]\n  " + source},
		{"induce", &algebra.Induce{Input: src},
			"EXCHANGE[induce]\n  " + source},
		{"outer join", &algebra.Join{Left: src, Right: depts, Kind: expr.JoinOuter, On: []string{"dept"}},
			"EXCHANGE[join]\n  " + source + "  FUSED[rename]\n    SHUFFLE[limit]\n      " + source},
		{"cross join", &algebra.Join{Left: src, Right: scores, Kind: expr.JoinCross},
			"EXCHANGE[join]\n  " + source + "  FUSED[rename]\n    SHUFFLE[limit]\n      FUSED[projection]\n        " + source},
		{"topk", &algebra.TopK{Input: src, Order: expr.SortOrder{{Col: "score", Desc: true}, {Col: "id"}}, N: 5},
			"EXCHANGE[topk-merge]\n  FUSED[topk-partial]\n    " + source},
		{"expanding window", &algebra.Window{Input: src, Spec: expr.WindowSpec{Kind: expr.WindowExpanding, Agg: expr.AggMax, Cols: []string{"val"}}},
			"EXCHANGE[window]\n  " + source},
	} {
		t.Run(c.name, func(t *testing.T) {
			phys, err := New(WithBands(4)).Compile(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := physical.Render(phys); got != c.want {
				t.Errorf("rendered\n%s\nwant\n%s", got, c.want)
			}
			if phys.Exchange == nil || phys.Exchange.Desc != c.plan.Describe() {
				t.Errorf("root stage does not carry %q", c.plan.Describe())
			}
			bothEngines(t, c.plan)
		})
	}
}

// TestAnchoredPassesRender pins the physical form of the ordered passes
// that read neighbouring bands instead of gathering: FROMLABELS, the
// bounded windows and LIMIT are one anchored shuffle under the operator's
// name, a
// data-column join renumbers in a second one over its probe — each carrying
// the operator's description and computing the eager engine's frame.
func TestAnchoredPassesRender(t *testing.T) {
	src := &algebra.Source{DF: testFrame(30), Name: "t"}
	heads := &algebra.Source{DF: core.MustFromRecords([]string{"dept", "head"}, [][]any{{"eng", "grace"}, {"ops", "ada"}})}
	const source = "SOURCE[4 bands]\n"
	window := func(spec expr.WindowSpec) algebra.Node { return &algebra.Window{Input: src, Spec: spec} }
	for _, c := range []struct {
		name string
		plan algebra.Node
		want string
	}{
		{"fromlabels", &algebra.FromLabels{Input: &algebra.ToLabels{Input: src, Col: "id"}, Label: "idx"},
			"SHUFFLE[fromlabels]\n  FUSED[tolabels]\n    " + source},
		{"shift", window(expr.WindowSpec{Kind: expr.WindowShift, Offset: -2, Cols: []string{"val"}}),
			"SHUFFLE[window]\n  " + source},
		{"diff", window(expr.WindowSpec{Kind: expr.WindowDiff, Offset: 3, Reverse: true, Cols: []string{"id"}}),
			"SHUFFLE[window]\n  " + source},
		{"rolling", window(expr.WindowSpec{Kind: expr.WindowRolling, Size: 9, Agg: expr.AggSum, Cols: []string{"score"}}),
			"SHUFFLE[window]\n  " + source},
		{"join", &algebra.Join{Left: src, Right: heads, Kind: expr.JoinInner, On: []string{"dept"}},
			"SHUFFLE[renumber]\n  SHUFFLE[join]\n    " + source + "    SOURCE[2 bands]\n"},
		{"head", &algebra.Limit{Input: src, N: 12}, "SHUFFLE[limit]\n  " + source},
		{"tail", &algebra.Limit{Input: src, N: -12}, "SHUFFLE[limit]\n  " + source},
	} {
		t.Run(c.name, func(t *testing.T) {
			phys, err := New(WithBands(4)).Compile(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := physical.Render(phys); got != c.want {
				t.Errorf("rendered\n%s\nwant\n%s", got, c.want)
			}
			if phys.Shuffle == nil || phys.Shuffle.Desc != c.plan.Describe() {
				t.Errorf("root stage does not carry %q", c.plan.Describe())
			}
			bothEngines(t, c.plan)
		})
	}
}

func TestExecuteAsyncReturnsUnresolvedFuture(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(2))
	df := testFrame(30)
	gate := make(chan struct{})
	slow := expr.MapFn{
		Name:    "gated",
		OutCols: []types.Value{types.String("x")},
		Fn: func(r expr.Row) []types.Value {
			<-gate
			return []types.Value{types.IntValue(int64(r.Position()))}
		},
	}
	fut := e.ExecuteAsync(&algebra.Map{Input: &algebra.Source{DF: df}, Fn: slow})
	if fut.Ready() {
		t.Fatal("future should be unresolved while the map is gated")
	}
	close(gate)
	v, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v.(*core.DataFrame).NRows() != 30 {
		t.Error("async result wrong")
	}
}

func TestExecuteAsyncCompileErrorFailsFuture(t *testing.T) {
	e := New()
	if _, err := e.ExecuteAsync(nil).Wait(); err == nil {
		t.Error("nil plan should fail the future")
	}
}

func TestExecutePartitionedFusedRootIsDeferred(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(3))
	df := testFrame(60)
	pf, err := e.ExecutePartitioned(&algebra.Selection{
		Input: &algebra.Source{DF: df}, Pred: evenPred(), Desc: "even",
	})
	if err != nil {
		t.Fatal(err)
	}
	if pf.RowBands() != 3 {
		t.Errorf("bands = %d", pf.RowBands())
	}
	out, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 30 {
		t.Errorf("rows = %d", out.NRows())
	}
}

func TestKernelErrorPropagatesAndCancels(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(4))
	df := testFrame(40)
	bad := expr.MapFn{
		Name:    "boom",
		OutCols: []types.Value{types.String("x")},
		Fn: func(r expr.Row) []types.Value {
			panic("map kaboom")
		},
	}
	start := time.Now()
	if _, err := e.Execute(&algebra.Map{Input: &algebra.Source{DF: df}, Fn: bad}); err == nil {
		t.Fatal("failing map should error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("error took %v to surface", elapsed)
	}
}
