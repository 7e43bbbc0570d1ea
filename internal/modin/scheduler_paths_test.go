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

// exchangePlan is a plan with a stage over an exchange, and the partition
// and merge tasks its run schedules per band. untyped marks a plan whose
// stage induces a string column per band, the known divergence
// TestUntypedStringDomainsDependOnBands pins: above one band its result is
// compared as a streamed one, Object and Category alike.
type exchangePlan struct {
	plan               algebra.Node
	partitions, merges int64
	untyped            bool
}

// exchangePlans covers a stage over every exchange kind: the groupby
// restore, the transpose, the gather (outer join, union) and the topk merge.
func exchangePlans() map[string]exchangePlan {
	src := &algebra.Source{DF: algebra.InduceFrame(testFrame(90)), Name: "t"}
	m := make([][]any, 24)
	for i := range m {
		m[i] = []any{i % 4, i * 2, i * 3}
	}
	matrix := &algebra.Source{DF: algebra.InduceFrame(core.MustFromRecords([]string{"a", "b", "c"}, m)), Name: "m"}
	heads := &algebra.Source{DF: algebra.InduceFrame(core.MustFromRecords([]string{"dept", "head"}, [][]any{{"eng", "grace"}, {"ops", "ada"}, {"hr", "edsger"}})), Name: "h"}
	even := &algebra.Selection{Input: src, Pred: evenPred(), Desc: "even"}
	return map[string]exchangePlan{
		"groupby → sort": {&algebra.Sort{Input: groupByPlan(src), Order: expr.SortOrder{{Col: "total", Desc: true}}}, 2, 2, false},
		"transpose → groupby": {&algebra.GroupBy{
			Input: &algebra.Transpose{Input: &algebra.Transpose{Input: matrix}},
			Spec:  expr.GroupBySpec{Keys: []string{"a"}, Aggs: []expr.AggSpec{{Col: "b", Agg: expr.AggSum, As: "s"}}},
		}, 1, 1, false},
		// The probe and its renumber pass are two anchored shuffles over
		// the groupby's restore exchange; the source is the probe's side
		// input.
		"groupby → join": {&algebra.Join{Left: groupByPlan(src), Right: src, Kind: expr.JoinInner, On: []string{"dept"}}, 1, 3, false},
		"outer join → groupby": {&algebra.GroupBy{
			Input: &algebra.Join{Left: src, Right: heads, Kind: expr.JoinOuter, On: []string{"dept"}},
			Spec:  expr.GroupBySpec{Keys: []string{"head"}, Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggSum, As: "s"}}},
		}, 1, 1, true},
		"union → sort": {sortTestPlan(&algebra.Union{Left: src, Right: even}), 1, 1, false},
		"topk → window": {&algebra.Window{
			Input: &algebra.TopK{Input: src, Order: expr.SortOrder{{Col: "score", Desc: true}, {Col: "id"}}, N: 20},
			Spec:  expr.WindowSpec{Kind: expr.WindowShift, Offset: 2, Cols: []string{"id"}},
		}, 0, 1, false},
	}
}

// TestStagesOverExchangesMatchEager: a stage over an exchange is wired with
// the rest of the plan — its partition and merge tasks are counted when
// Schedule returns, one per band the exchange hands on — and agrees with
// the eager engine cell for cell and in declared domains at every band
// count, including on a one-worker pool, where a worker parked on an
// unfinished task would hang the run.
func TestStagesOverExchangesMatchEager(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	for name, c := range exchangePlans() {
		for _, bands := range []int{1, 2, 7} {
			for _, pool := range []*exec.Pool{exec.Default, one} {
				t.Run(fmt.Sprintf("%s bands %d workers %d", name, bands, pool.Workers()), func(t *testing.T) {
					// A fresh eager result each time: reading a frame's cells
					// memoizes its declared domains.
					want, err := eager.New().Execute(c.plan)
					if err != nil {
						t.Fatal(err)
					}
					withDeadline(t, 30*time.Second, func() {
						res, sched, err := New(WithBands(bands), WithPool(pool)).Schedule(c.plan)
						if err != nil {
							t.Error(err)
							return
						}
						parts, merges := sched.Stats.ShufflePartitionTasks.Load(), sched.Stats.ShuffleMergeTasks.Load()
						if parts != c.partitions*int64(bands) || merges != c.merges*int64(bands) {
							t.Errorf("scheduled %d partition and %d merge tasks, want %d and %d", parts, merges, c.partitions*int64(bands), c.merges*int64(bands))
						}
						frame, _ := res.Frame()
						got, err := frame.ToFrame()
						if err != nil {
							t.Error(err)
							return
						}
						if d := bitDiff(want, got, c.untyped && bands > 1); d != "" {
							t.Errorf("differs from eager: %s", d)
						}
						if sched.Stats.ShufflePartitionTasks.Load() != parts || sched.Stats.ShuffleMergeTasks.Load() != merges {
							t.Error("task counters moved after Schedule returned")
						}
					})
				})
			}
		}
	}
}

// TestSpilledKeyedJoinWithDuplicateAndNullKeys runs a keyed join under a
// one-cell spill budget: duplicate keys fan out, null keys never match, the
// output order is the left input's, and the run leaves no spill directory
// behind.
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
		e := New(WithBands(3), WithShuffleSpillBudget(1))
		assertEngineAgreesWithEager(t, e, plan)
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
			plan:  &algebra.Window{Input: src, Spec: expr.WindowSpec{Kind: expr.WindowExpanding, Agg: expr.AggMax, Cols: []string{"ghost"}}},
			eager: `WINDOW(expanding, max): algebra: window over unknown column "ghost"`,
			modin: `physical: exchange window: WINDOW(expanding, max): algebra: window over unknown column "ghost"`,
		},
		{
			name:  "window merge",
			plan:  &algebra.Window{Input: src, Spec: expr.WindowSpec{Kind: expr.WindowRolling, Size: 0}},
			eager: `WINDOW(rolling 0, count): algebra: window over "id": rolling window requires positive size, got 0`,
			modin: `physical: shuffle window merge band 0: WINDOW(rolling 0, count): algebra: window over "id": rolling window requires positive size, got 0`,
		},
		{
			name:  "gather exchange",
			plan:  &algebra.DropDuplicates{Input: src, Subset: []string{"dept", "ghost"}},
			eager: `DROP-DUPLICATES(dept, ghost): algebra: drop-duplicates on unknown column "ghost"`,
			modin: `physical: exchange dropduplicates: DROP-DUPLICATES(dept, ghost): algebra: drop-duplicates on unknown column "ghost"`,
		},
		{
			name:  "groupby partition",
			plan:  &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{Keys: []string{"ghost"}, Aggs: sum("val")}},
			eager: `GROUPBY(keys=[ghost], aggs=[sum(val)]): algebra: groupby key "ghost" not found`,
			modin: `physical: shuffle groupby partition band 0: GROUPBY(keys=[ghost], aggs=[sum(val)]): algebra: groupby key "ghost" not found`,
		},
		{
			name:  "sort summarize",
			plan:  &algebra.Sort{Input: src, Order: expr.SortOrder{{Col: "ghost"}}},
			eager: `SORT(ghost): algebra: sort on unknown column "ghost"`,
			modin: `SORT(ghost): modin: sort on unknown column "ghost"`,
		},
		{
			name:  "groupby merge",
			plan:  &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{Keys: []string{"dept"}, Aggs: sum("ghost")}},
			eager: `GROUPBY(keys=[dept], aggs=[sum(ghost)]): algebra: groupby aggregate column "ghost" not found`,
			modin: `physical: shuffle groupby merge band 0: GROUPBY(keys=[dept], aggs=[sum(ghost)]): algebra: groupby aggregate column "ghost" not found`,
		},
		{
			name:  "join key missing from right",
			plan:  &algebra.Join{Left: src, Right: &algebra.Projection{Input: src, Cols: []string{"id", "val"}}, Kind: expr.JoinInner, On: []string{"dept"}},
			eager: `JOIN(inner, on=dept): algebra: join key "dept" missing from right input`,
			modin: `physical: shuffle join merge band 0: JOIN(inner, on=dept): algebra: join key "dept" missing from right input`,
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

	// No operator fails in its plan phase, so that text is pinned on a
	// synthetic shuffle carrying a description the way a compiled one does,
	// beside the other phases and a failing merge over a prefix reach.
	boom := errors.New("boom")
	pool := exec.NewPool(2)
	defer pool.Close()
	for phase, want := range map[string]string{
		"summarize":    "OP(x): boom",
		"plan":         "physical: shuffle syn plan: OP(x): boom",
		"prefix reach": "physical: shuffle syn merge band 0: OP(x): boom",
		"partition":    "physical: shuffle syn partition band 0: OP(x): boom",
		"merge":        "physical: shuffle syn merge band 0: OP(x): boom",
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
		case "prefix reach":
			sh.Summarize, sh.Plan, sh.Partition, sh.Reach = nil, nil, nil, physical.ReachPrefix
			sh.Merge = func(int, []physical.Piece, any) (*core.DataFrame, error) { return nil, boom }
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

	// An exchange hands on the band count it promised when the plan was
	// scheduled: at least one band, and Run may return no more than that.
	three := physical.NewSource(partition.New(testFrame(9), partition.Rows, 3))
	pass := func(in []*partition.Frame) (*partition.Frame, error) { return in[0], nil }
	for name, c := range map[string]struct {
		bands int
		want  string
	}{
		"exchange returns more bands": {2, "physical: exchange syn returned 3 bands, want at most 2"},
		"exchange promises no band":   {0, "physical: exchange syn hands on 0 bands, want at least 1"},
	} {
		res, err := physical.NewScheduler(pool).Run(physical.NewExchange("syn", c.bands, pass, three))
		if err == nil {
			f, _ := res.Frame()
			_, err = f.ToFrame()
		}
		if rootCause(err) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", name, rootCause(err), c.want)
		}
	}
}
