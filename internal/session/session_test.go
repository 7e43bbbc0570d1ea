package session

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/types"
)

func frame(rows int) *core.DataFrame {
	records := make([][]any, rows)
	for i := range records {
		records[i] = []any{i, []string{"x", "y", "z"}[i%3], float64(i) * 0.5}
	}
	return core.MustFromRecords([]string{"id", "tag", "val"}, records)
}

func filterPlan(in algebra.Node) algebra.Node {
	return &algebra.Selection{
		Input: in,
		Pred:  expr.ColEquals("tag", types.String("x")),
		Desc:  "tag==x",
	}
}

// extend issues a statement whose plan builds on h's.
func extend(h *Handle, name string, build func(algebra.Node) algebra.Node) *Handle {
	return h.s.Statement(name, build(h.Plan()))
}

func TestModeNames(t *testing.T) {
	if Eager.String() != "eager" || Lazy.String() != "lazy" || Opportunistic.String() != "opportunistic" {
		t.Error("mode names wrong")
	}
}

func TestEagerEvaluatesImmediately(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	h := extend(s.Bind("df", frame(50)), "filtered", filterPlan)
	if !h.Ready() {
		t.Error("eager statements should be materialized on issue")
	}
	out, err := h.Collect()
	if err != nil || out.NRows() != 17 {
		t.Errorf("collect: %v rows=%d", err, out.NRows())
	}
	if s.Stats.FullEvaluations.Load() == 0 {
		t.Error("eager should have evaluated")
	}
}

func TestLazyDefersUntilCollect(t *testing.T) {
	s := New(eager.New(), Lazy, nil)
	h := extend(s.Bind("df", frame(50)), "filtered", filterPlan)
	if h.Ready() {
		t.Error("lazy statements must not evaluate on issue")
	}
	if s.Stats.FullEvaluations.Load() != 0 {
		t.Error("no evaluation should have happened yet")
	}
	out, err := h.Collect()
	if err != nil || out.NRows() != 17 {
		t.Errorf("collect: %v", err)
	}
}

func TestOpportunisticBackgroundsWork(t *testing.T) {
	s := New(modin.New(), Opportunistic, nil)
	h := extend(s.Bind("df", frame(2000)), "filtered", filterPlan)
	// Control returned immediately; background work proceeds.
	s.ThinkTime()
	if !h.Ready() {
		t.Error("think time should let background work finish")
	}
	out, err := h.Collect()
	if err != nil || out.NRows() != 667 {
		t.Errorf("collect: %v rows=%d", err, out.NRows())
	}
	if s.Stats.BackgroundTasks.Load() == 0 {
		t.Error("background tasks should have been scheduled")
	}
}

func TestLazyHeadComputesOnlyPrefix(t *testing.T) {
	s := New(eager.New(), Lazy, nil)
	h := extend(s.Bind("df", frame(1000)), "filtered", filterPlan)
	head, err := h.Head(5)
	if err != nil {
		t.Fatal(err)
	}
	if head.NRows() != 5 {
		t.Errorf("head rows = %d", head.NRows())
	}
	if head.Value(0, 0).Int() != 0 || head.Value(4, 0).Int() != 12 {
		t.Errorf("head content wrong:\n%s", head)
	}
	if s.Stats.PartialEvaluations.Load() != 1 {
		t.Error("head should be a partial evaluation")
	}
	if s.Stats.FullEvaluations.Load() != 0 {
		// The prefix runs as a LIMIT plan outside the materialization
		// path: the un-limited plan must not have been evaluated.
		t.Errorf("full evals = %d, want 0", s.Stats.FullEvaluations.Load())
	}
	if h.Ready() {
		t.Error("head must not materialize the full result")
	}
}

func TestTailView(t *testing.T) {
	s := New(eager.New(), Lazy, nil)
	h := s.Bind("df", frame(100))
	tail, err := h.Tail(3)
	if err != nil || tail.NRows() != 3 {
		t.Fatal(err)
	}
	if tail.Value(2, 0).Int() != 99 {
		t.Error("tail content wrong")
	}
}

func TestHeadServedFromMaterialized(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	h := extend(s.Bind("df", frame(100)), "filtered", filterPlan)
	partialBefore := s.Stats.PartialEvaluations.Load()
	head, err := h.Head(4)
	if err != nil || head.NRows() != 4 {
		t.Fatal(err)
	}
	if s.Stats.PartialEvaluations.Load() != partialBefore {
		t.Error("head over a materialized result should not re-evaluate")
	}
}

func TestIntermediateReuse(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	base := s.Bind("df", frame(500))
	filtered := extend(base, "filtered", filterPlan)
	evalsAfterFilter := s.Stats.FullEvaluations.Load()

	// Two downstream statements both build on "filtered": its
	// materialized result must be reused, not recomputed.
	a := extend(filtered, "proj-a", func(in algebra.Node) algebra.Node {
		return &algebra.Projection{Input: in, Cols: []string{"id"}}
	})
	b := extend(filtered, "proj-b", func(in algebra.Node) algebra.Node {
		return &algebra.Projection{Input: in, Cols: []string{"val"}}
	})
	if _, err := a.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.ReuseHits.Load() < 2 {
		t.Errorf("reuse hits = %d, want >= 2", s.Stats.ReuseHits.Load())
	}
	// Each downstream evaluation is a projection over the materialized
	// source, so evaluations grew by exactly two.
	if got := s.Stats.FullEvaluations.Load() - evalsAfterFilter; got != 2 {
		t.Errorf("extra evaluations = %d, want 2", got)
	}
}

func TestCollectIsIdempotent(t *testing.T) {
	s := New(eager.New(), Lazy, nil)
	h := extend(s.Bind("df", frame(100)), "filtered", filterPlan)
	first, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	evals := s.Stats.FullEvaluations.Load()
	second, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(second) {
		t.Error("collect results differ")
	}
	if s.Stats.FullEvaluations.Load() != evals {
		t.Error("second collect should be served from cache")
	}
}

func TestForgetDropsMaterialization(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	h := extend(s.Bind("df", frame(50)), "filtered", filterPlan)
	if !h.Ready() {
		t.Fatal("should be ready")
	}
	h.Forget()
	if h.Ready() {
		t.Error("forget should drop the result")
	}
	if _, err := h.Collect(); err != nil {
		t.Error("collect after forget should recompute")
	}
}

func TestOpportunisticTimeToFirstView(t *testing.T) {
	// The Section 6 claim at test scale: under opportunistic evaluation,
	// issuing a statement returns control before the work finishes.
	slow := &slowEngine{inner: eager.New(), delay: 50 * time.Millisecond}
	s := New(slow, Opportunistic, nil)
	start := time.Now()
	h := extend(s.Bind("df", frame(100)), "filtered", filterPlan)
	issueLatency := time.Since(start)
	if issueLatency > 25*time.Millisecond {
		t.Errorf("statement blocked for %v; opportunistic must return immediately", issueLatency)
	}
	h.Wait()
	if !h.Ready() {
		t.Error("background work should complete")
	}
	if slow.calls.Load() == 0 {
		t.Error("engine should have run")
	}
}

// slowEngine delays every execution to make blocking observable.
type slowEngine struct {
	inner algebra.Engine
	delay time.Duration
	calls atomic.Int64
}

func (s *slowEngine) Name() string { return "slow" }

func (s *slowEngine) Execute(n algebra.Node) (*core.DataFrame, error) {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return s.inner.Execute(n)
}

func TestStatementCountsAndNames(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	h := s.Bind("df", frame(10))
	if h.Name() != "df" {
		t.Error("name wrong")
	}
	h2 := extend(h, "f", filterPlan)
	if s.Stats.Statements.Load() != 2 {
		t.Error("statement count wrong")
	}
	if algebra.CountNodes(h2.Plan()) != 2 {
		t.Error("plan should chain")
	}
	if s.Mode() != Eager || s.Engine().Name() != "pandas-baseline" {
		t.Error("accessors wrong")
	}
}

func TestSpillingEvictsAndReloads(t *testing.T) {
	s := New(eager.New(), Eager, nil)
	defer s.Close()
	if err := s.EnableSpillingBudget(100); err != nil { // room for the small results, not the base frame
		t.Fatal(err)
	}

	base := s.Bind("df", frame(200))
	handles := []*Handle{base}
	for i := 0; i < 4; i++ {
		handles = append(handles, extend(base, "stmt", func(in algebra.Node) algebra.Node {
			return &algebra.Limit{Input: in, N: 10 + i}
		}))
	}
	if s.Stats.Spills.Load() == 0 {
		t.Fatal("expected spills beyond the resident budget")
	}
	// Every handle still collects correctly — spilled ones reload.
	for i, h := range handles {
		out, err := h.Collect()
		if err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
		if out.NRows() == 0 {
			t.Fatalf("handle %d empty", i)
		}
	}
	if s.Stats.SpillReloads.Load() == 0 {
		t.Error("expected at least one reload from the store")
	}
}

func TestSpillingPreservesResults(t *testing.T) {
	plain := New(eager.New(), Eager, nil)
	spilling := New(eager.New(), Eager, nil)
	defer spilling.Close()
	if err := spilling.EnableSpillingBudget(1); err != nil {
		t.Fatal(err)
	}

	build := func(s *Session) *core.DataFrame {
		h := extend(s.Bind("df", frame(300)), "filtered", filterPlan)
		s.Bind("other", frame(50)) // displaces the filtered result
		out, err := h.Collect()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := build(plain), build(spilling)
	if !a.Equal(b) {
		t.Error("spilled session result differs from plain session")
	}
}

func TestAsyncEngineBackgroundStatementIsDeferred(t *testing.T) {
	// The MODIN engine implements AsyncEngine: an opportunistic statement
	// hands back an unresolved handle whose task DAG is already scheduled,
	// without occupying a pool worker for the whole evaluation.
	var _ AsyncEngine = modin.New() // compile-time wiring check

	gate := make(chan struct{})
	slow := expr.MapFn{
		Name:    "gated",
		OutCols: []types.Value{types.String("pos")},
		Fn: func(r expr.Row) []types.Value {
			<-gate
			return []types.Value{types.IntValue(int64(r.Position()))}
		},
	}
	s := New(modin.New(), Opportunistic, nil)
	h := extend(s.Bind("df", frame(40)), "mapped", func(in algebra.Node) algebra.Node {
		return &algebra.Map{Input: in, Fn: slow}
	})
	if h.Ready() {
		t.Fatal("gated opportunistic statement should be unresolved")
	}
	close(gate)
	out, err := h.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 40 {
		t.Errorf("rows = %d", out.NRows())
	}
	s.ThinkTime()                                        // drain the Bind statement's background evaluation too
	if got := s.Stats.FullEvaluations.Load(); got != 2 { // source bind + map
		t.Errorf("full evaluations = %d, want 2", got)
	}
	if s.Stats.BackgroundTasks.Load() == 0 {
		t.Error("statement should have been scheduled in the background")
	}
}

func TestAsyncEngineErrorSurfacesOnCollect(t *testing.T) {
	bad := expr.MapFn{
		Name:    "boom",
		OutCols: []types.Value{types.String("x")},
		Fn:      func(r expr.Row) []types.Value { panic("udf kaboom") },
	}
	s := New(modin.New(), Opportunistic, nil)
	h := extend(s.Bind("df", frame(20)), "bad", func(in algebra.Node) algebra.Node {
		return &algebra.Map{Input: in, Fn: bad}
	})
	if _, err := h.Collect(); err == nil {
		t.Error("failing background statement should surface on Collect")
	}
}
