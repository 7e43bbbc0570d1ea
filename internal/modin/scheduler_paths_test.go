package modin

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
)

// withDeadline runs fn and fails the test — with every goroutine's stack —
// if it has not returned within d: a deadlocked DAG otherwise only shows as
// the package's test timeout.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("no result after %v; goroutines:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// latePlan is a plan with one shuffle downstream of an exchange, whose input
// shape is unknown when the plan is scheduled; known counts the partitioned
// shuffles over shape-known inputs beside it.
type latePlan struct {
	plan  algebra.Node
	known int64
}

func lateWiredPlans() map[string]latePlan {
	src := &algebra.Source{DF: algebra.InduceFrame(testFrame(90)), Name: "t"}
	m := make([][]any, 24)
	for i := range m {
		m[i] = []any{i % 4, i * 2, i * 3}
	}
	matrix := &algebra.Source{DF: algebra.InduceFrame(core.MustFromRecords([]string{"a", "b", "c"}, m)), Name: "m"}
	return map[string]latePlan{
		"groupby → sort": {&algebra.Sort{Input: groupByPlan(src), Order: expr.SortOrder{{Col: "total", Desc: true}}}, 1},
		"transpose → groupby": {&algebra.GroupBy{
			Input: &algebra.Transpose{Input: &algebra.Transpose{Input: matrix}},
			Spec:  expr.GroupBySpec{Keys: []string{"a"}, Aggs: []expr.AggSpec{{Col: "b", Agg: expr.AggSum, As: "s"}}},
		}, 0},
		// Keyed: the build side shuffles over the source, the probe side —
		// with the built buckets as its side input — behind the groupby's
		// restore exchange.
		"groupby → join": {&algebra.Join{Left: groupByPlan(src), Right: src, Kind: expr.JoinInner, On: []string{"dept"}}, 2},
	}
}

// TestLateWiredShufflesMatchEager: a shuffle downstream of an exchange is
// wired late — counted as a fallback, yet lowered to real per-band partition
// tasks — and agrees with the eager engine at every band count, including on
// a one-worker pool, where a worker parked on an unfinished task would hang
// the run.
func TestLateWiredShufflesMatchEager(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	for name, c := range lateWiredPlans() {
		for _, bands := range []int{1, 2, 7} {
			for _, pool := range []*exec.Pool{exec.Default, one} {
				t.Run(fmt.Sprintf("%s bands %d workers %d", name, bands, pool.Workers()), func(t *testing.T) {
					e := New(WithBands(bands), WithPool(pool), withBuildLimit(10))
					withDeadline(t, 30*time.Second, func() {
						stats := assertAgreesWithEager(t, e, c.plan)
						wantFallbacks, known := int64(1), c.known*int64(bands)
						if _, join := c.plan.(*algebra.Join); join && bands == 1 {
							// One band never shuffles a join by key: the build
							// side broadcasts, and the probe and its renumber
							// pass are two anchored shuffles behind the exchange.
							wantFallbacks, known = 2, int64(bands)
						}
						if stats.fallbacks != wantFallbacks {
							t.Errorf("fallbacks = %d, want %d", stats.fallbacks, wantFallbacks)
						}
						if stats.partitionTasks <= known && wantFallbacks == 1 {
							t.Errorf("partition tasks = %d, %d of them over shape-known inputs: the late-wired shuffle scheduled none", stats.partitionTasks, known)
						}
					})
				})
			}
		}
	}
}

// TestSpilledKeyedJoinWithDuplicateAndNullKeys: the keyed join's left
// ordinals ride through the shuffle as a column of every routed piece, so
// they spill and come back with the rows they number — duplicate keys fan
// out, null keys never match, and the restored order is the left input's.
func TestSpilledKeyedJoinWithDuplicateAndNullKeys(t *testing.T) {
	lrec := make([][]any, 90)
	for i := range lrec {
		var k any = i % 6 // every key six-fold duplicated...
		if i%5 == 0 {
			k = nil // ...and a fifth of the rows null-keyed
		}
		lrec[i] = []any{k, i}
	}
	rrec := make([][]any, 40)
	for i := range rrec {
		rrec[i] = []any{i % 8, i * 2}
	}
	left := &algebra.Source{DF: core.MustFromRecords([]string{"k", "x"}, lrec)}
	right := &algebra.Source{DF: core.MustFromRecords([]string{"k", "y"}, rrec)}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{Left: left, Right: right, Kind: kind, On: []string{"k"}}
		e := New(WithBands(3), withBuildLimit(10), WithShuffleSpillBudget(1))
		if !e.chooseJoinStrategy(plan).shuffled {
			t.Fatal("expected the shuffled join strategy")
		}
		assertEngineAgreesWithEager(t, e, plan)
		if e.Stats().SpilledPieces.Load() == 0 {
			t.Error("expected spilled join pieces under a one-cell budget")
		}
		if err := e.ReleaseSpill(); err != nil {
			t.Fatal(err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*", "*")); len(left) != 0 {
			t.Errorf("ReleaseSpill left %v", left)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("ReleaseSpill left %d spill directories", len(entries))
		}
	}
}

// TestStreamedSortUnderSpillBudgetCompletes is the 37-row reproduction of
// the streamed-SORT deadlock: more bands than the parse-ahead window, every
// routed run spilled. The producer used to wait for band releases that the
// range shuffle cannot make before every band is sampled.
func TestStreamedSortUnderSpillBudgetCompletes(t *testing.T) {
	plan := sortTestPlan(scanOver(t, testFrame(37), 1))
	withDeadline(t, 30*time.Second, func() {
		e := New(WithBands(4), WithShuffleSpillBudget(1))
		defer e.ReleaseSpill()
		assertEngineAgreesWithEager(t, e, plan)
		if e.Stats().StreamReleasedBands.Load() == 0 {
			t.Error("expected routed scan bands to be released")
		}
	})
}

// rootCause strips the exec layer's propagation prefixes: which task of a
// failed run reports first depends on timing, the failure itself does not.
func rootCause(err error) string {
	if err == nil {
		return "<nil>"
	}
	text := err.Error()
	for _, prefix := range []string{"exec: group cancelled: ", "exec: dependency failed: "} {
		for strings.HasPrefix(text, prefix) {
			text = strings.TrimPrefix(text, prefix)
		}
	}
	return text
}

// TestErrorTextIsPinned pins the exact text of a failure in a kernel, an
// exchange and each shuffle phase, on both engines: the scheduler names the
// stage and phase, the stage carries the logical operator's description.
func TestErrorTextIsPinned(t *testing.T) {
	src := &algebra.Source{DF: testFrame(40), Name: "t"}
	sum := func(col string) []expr.AggSpec { return []expr.AggSpec{{Col: col, Agg: expr.AggSum, As: "s"}} }
	for _, c := range []struct {
		name         string
		plan         algebra.Node
		eager, modin string
		opts         []Option
	}{
		{
			name:  "kernel",
			plan:  &algebra.Projection{Input: src, Cols: []string{"id", "ghost"}},
			eager: `PROJECTION(id, ghost): algebra: projection of unknown column "ghost"`,
			modin: `physical: kernel projection: PROJECTION(id, ghost): algebra: projection of unknown column "ghost"`,
		},
		{
			name:  "fused topk kernel",
			plan:  &algebra.TopK{Input: src, Order: expr.SortOrder{{Col: "ghost"}}, N: 3},
			eager: `TOPK(3, by=[ghost]): algebra: topk on unknown column "ghost"`,
			modin: `physical: kernel topk-partial: TOPK(3, by=[ghost]): algebra: topk on unknown column "ghost"`,
		},
		{
			name:  "exchange",
			plan:  &algebra.Window{Input: src, Spec: expr.WindowSpec{Kind: expr.WindowRolling, Size: 0}},
			eager: `WINDOW(rolling 0, count): algebra: window over "id": rolling window requires positive size, got 0`,
			modin: `physical: exchange window: WINDOW(rolling 0, count): algebra: window over "id": rolling window requires positive size, got 0`,
		},
		{
			name:  "groupby summarize",
			plan:  &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{Keys: []string{"ghost"}, Aggs: sum("val")}},
			eager: `GROUPBY(keys=[ghost], aggs=[sum(val)]): algebra: groupby key "ghost" not found`,
			modin: `GROUPBY(keys=[ghost], aggs=[sum(val)]): algebra: groupby key "ghost" not found`,
		},
		{
			name:  "sort summarize",
			plan:  &algebra.Sort{Input: src, Order: expr.SortOrder{{Col: "ghost"}}},
			eager: `SORT(ghost): algebra: sort on unknown column "ghost"`,
			modin: `SORT(ghost): modin: sort on unknown column "ghost"`,
		},
		{
			// Two bands, so the join shuffles by key; a one-row build side,
			// so only its band 0 exists to fail.
			name:  "keyed join partition",
			plan:  &algebra.Join{Left: src, Right: &algebra.Source{DF: testFrame(1)}, Kind: expr.JoinInner, On: []string{"ghost"}},
			opts:  []Option{WithBands(2), withBuildLimit(0)},
			eager: `JOIN(inner, on=ghost): algebra: join key "ghost" missing from left input`,
			modin: `physical: shuffle join-build partition band 0: JOIN(inner, on=ghost): algebra: key column "ghost" missing`,
		},
		{
			name:  "groupby merge",
			plan:  &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{Keys: []string{"dept"}, Aggs: sum("ghost")}},
			eager: `GROUPBY(keys=[dept], aggs=[sum(ghost)]): algebra: groupby aggregate column "ghost" not found`,
			modin: `physical: shuffle groupby merge band 0: GROUPBY(keys=[dept], aggs=[sum(ghost)]): algebra: groupby aggregate column "ghost" not found`,
		},
		{
			name:  "broadcast join merge",
			plan:  &algebra.Join{Left: src, Right: src, Kind: expr.JoinInner, On: []string{"ghost"}},
			eager: `JOIN(inner, on=ghost): algebra: join key "ghost" missing from left input`,
			modin: `physical: shuffle join merge band 0: JOIN(inner, on=ghost): algebra: join key "ghost" missing from left input`,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := eager.New().Execute(c.plan); rootCause(err) != c.eager {
				t.Errorf("eager:\n got %s\nwant %s", rootCause(err), c.eager)
			}
			// One band unless the case says otherwise: the text names the
			// band, and with several failing bands the first is a race.
			if _, err := New(append([]Option{WithBands(1)}, c.opts...)...).Execute(c.plan); rootCause(err) != c.modin {
				t.Errorf("modin:\n got %s\nwant %s", rootCause(err), c.modin)
			}
		})
	}

	// No operator fails in its plan or prefix-plan phase, so those texts are
	// pinned on a synthetic shuffle carrying a description the way a compiled
	// one does.
	boom := errors.New("boom")
	pool := exec.NewPool(2)
	defer pool.Close()
	for phase, want := range map[string]string{
		"summarize":   "OP(x): boom",
		"plan":        "physical: shuffle syn plan: OP(x): boom",
		"prefix plan": "physical: shuffle syn prefix plan band 0: OP(x): boom",
		"partition":   "physical: shuffle syn partition band 0: OP(x): boom",
		"merge":       "physical: shuffle syn merge band 0: OP(x): boom",
	} {
		sh := &physical.Shuffle{
			Name:      "syn",
			Desc:      "OP(x)",
			Buckets:   1,
			Summarize: func(int, *core.DataFrame) (any, error) { return 0, nil },
			Plan:      func([]any, []*partition.Frame) (any, error) { return 0, nil },
			Partition: func(_ int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
				return []*core.DataFrame{df}, nil
			},
			Merge: func(_ int, p []physical.Piece, _ any) (*core.DataFrame, error) { return p[0].Frame() },
		}
		switch phase {
		case "summarize":
			sh.Summarize = func(int, *core.DataFrame) (any, error) { return nil, boom }
		case "plan":
			sh.Plan = func([]any, []*partition.Frame) (any, error) { return nil, boom }
		case "prefix plan":
			sh.Plan, sh.Partition = nil, nil
			sh.PrefixPlan = func([]any) (any, error) { return nil, boom }
		case "partition":
			sh.Partition = func(int, *core.DataFrame, any) ([]*core.DataFrame, error) { return nil, boom }
		case "merge":
			sh.Merge = func(int, []physical.Piece, any) (*core.DataFrame, error) { return nil, boom }
		}
		s := physical.NewScheduler(pool)
		res, err := s.Run(physical.NewShuffle(sh, physical.NewSource(partition.New(testFrame(8), partition.Rows, 1))))
		if err != nil {
			t.Fatal(err)
		}
		f, err := res.Frame()
		if err != nil {
			t.Fatal(err)
		}
		if _, err = f.ToFrame(); rootCause(err) != want || !errors.Is(err, boom) {
			t.Errorf("%s:\n got %s\nwant %s", phase, rootCause(err), want)
		}
	}
}
