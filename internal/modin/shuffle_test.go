package modin

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/session"
)

func groupByPlan(in algebra.Node) algebra.Node {
	return &algebra.GroupBy{
		Input: in,
		Spec: expr.GroupBySpec{
			Keys: []string{"dept"},
			Aggs: []expr.AggSpec{
				{Col: "val", Agg: expr.AggSum, As: "total"},
				{Col: "score", Agg: expr.AggMean, As: "avg"},
			},
		},
	}
}

func sortTestPlan(in algebra.Node) algebra.Node {
	return &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "dept"}, {Col: "id", Desc: true}}}
}

// assertAgreesWithEager runs the plan through the engine's scheduler and the
// eager baseline and requires identical results, returning the run's
// scheduler for stats assertions.
func assertAgreesWithEager(t *testing.T, e *Engine, plan algebra.Node) *physicalStats {
	t.Helper()
	res, sched, err := e.Schedule(plan)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("shuffled result differs from eager:\neager:\n%s\nmodin:\n%s", want, got)
	}
	return &physicalStats{
		shuffleStages:  sched.Stats.ShuffleStages.Load(),
		streamStages:   sched.Stats.StreamStages.Load(),
		streamBands:    sched.Stats.StreamBands.Load(),
		partitionTasks: sched.Stats.ShufflePartitionTasks.Load(),
		mergeTasks:     sched.Stats.ShuffleMergeTasks.Load(),
	}
}

type physicalStats struct {
	shuffleStages, streamStages, streamBands int64
	partitionTasks, mergeTasks               int64
}

// TestGroupByShuffleEmitsPerBandFutures is the engine-level acceptance
// test: a multi-band GROUPBY schedules one partition task per input band
// and MORE THAN ONE merge task (one per output band), and still matches the
// eager baseline exactly — group order, labels and all.
func TestGroupByShuffleEmitsPerBandFutures(t *testing.T) {
	e := New(WithBands(4))
	stats := assertAgreesWithEager(t, e, groupByPlan(&algebra.Source{DF: testFrame(200)}))
	if stats.partitionTasks != 4 {
		t.Errorf("partition tasks = %d, want 4", stats.partitionTasks)
	}
	if stats.mergeTasks <= 1 {
		t.Errorf("merge tasks = %d, want > 1 (one independent future per output band)", stats.mergeTasks)
	}
}

// TestSortShuffleEmitsPerBandFutures: same acceptance property for the
// range shuffle behind SORT.
func TestSortShuffleEmitsPerBandFutures(t *testing.T) {
	e := New(WithBands(4))
	stats := assertAgreesWithEager(t, e, sortTestPlan(&algebra.Source{DF: testFrame(200)}))
	if stats.partitionTasks != 4 {
		t.Errorf("partition tasks = %d, want 4", stats.partitionTasks)
	}
	if stats.mergeTasks <= 1 {
		t.Errorf("merge tasks = %d, want > 1 (one independent future per output band)", stats.mergeTasks)
	}
}

// TestShuffleEmptyInput: a 0-row (but schema-carrying) frame flows through
// both shuffles.
func TestShuffleEmptyInput(t *testing.T) {
	empty := testFrame(100).SliceRows(0, 0)
	e := New(WithBands(4))
	assertAgreesWithEager(t, e, groupByPlan(&algebra.Source{DF: empty}))
	assertAgreesWithEager(t, e, sortTestPlan(&algebra.Source{DF: empty}))
}

// TestShuffleEmptyInputBands: a selection that empties three of the four
// bands feeds the shuffles empty bands (the summaries, partitions and
// merges must all tolerate them).
func TestShuffleEmptyInputBands(t *testing.T) {
	firstBandOnly := &algebra.Selection{
		Input: &algebra.Source{DF: testFrame(100)},
		Pred:  func(r expr.Row) bool { return r.ByName("id").Int() < 20 },
		Desc:  "first band only",
	}
	e := New(WithBands(4))
	assertAgreesWithEager(t, e, groupByPlan(firstBandOnly))
	assertAgreesWithEager(t, e, sortTestPlan(firstBandOnly))
}

// TestShuffleSkewAllRowsOneBucket: every row shares one group key (and one
// sort key), so all rows route to a single bucket; the other merges must
// produce well-formed empty bands.
func TestShuffleSkewAllRowsOneBucket(t *testing.T) {
	records := make([][]any, 80)
	for i := range records {
		records[i] = []any{"same", i % 7}
	}
	skewed := core.MustFromRecords([]string{"k", "v"}, records)
	e := New(WithBands(4))
	stats := assertAgreesWithEager(t, e, &algebra.GroupBy{
		Input: &algebra.Source{DF: skewed},
		Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
		},
	})
	if stats.mergeTasks != 4 {
		t.Errorf("merge tasks = %d, want 4 even under full skew", stats.mergeTasks)
	}
	assertAgreesWithEager(t, e, &algebra.Sort{
		Input: &algebra.Source{DF: skewed},
		Order: expr.SortOrder{{Col: "k"}},
	})
}

// TestShuffleSingleBandFrame: a one-band input still goes through the
// shuffle (one partition task) and fans out to the engine's bucket count.
func TestShuffleSingleBandFrame(t *testing.T) {
	e := New(WithBands(1))
	stats := assertAgreesWithEager(t, e, groupByPlan(&algebra.Source{DF: testFrame(50)}))
	if stats.partitionTasks != 1 || stats.mergeTasks != 1 {
		t.Errorf("tasks = %d partition / %d merge, want 1/1 for a single-band engine", stats.partitionTasks, stats.mergeTasks)
	}
	assertAgreesWithEager(t, e, sortTestPlan(&algebra.Source{DF: testFrame(50)}))
}

// TestShuffleWholeFrameAggregation: the groupby(1) query — no keys — is
// the extreme skew case: one group, routed to exactly one bucket.
func TestShuffleWholeFrameAggregation(t *testing.T) {
	e := New(WithBands(4))
	assertAgreesWithEager(t, e, &algebra.GroupBy{
		Input: &algebra.Source{DF: testFrame(90)},
		Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggCount, As: "n"}},
		},
	})
}

// TestShuffleDownstreamOfExchangeCountsItsTasks: a GROUPBY over a
// TRANSPOSE output (shape-opaque) gets one partition task per band the
// transpose hands on and one merge per bucket, and still agrees with eager.
func TestShuffleDownstreamOfExchangeCountsItsTasks(t *testing.T) {
	m := make([][]any, 24)
	for i := range m {
		m[i] = []any{i, i * 2, i * 3}
	}
	df := algebra.InduceFrame(core.MustFromRecords([]string{"a", "b", "c"}, m))
	plan := &algebra.GroupBy{
		Input: &algebra.Transpose{Input: &algebra.Transpose{Input: &algebra.Source{DF: df}}},
		Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "a", Agg: expr.AggSum, As: "s"}},
		},
	}
	e := New(WithBands(3))
	stats := assertAgreesWithEager(t, e, plan)
	if stats.partitionTasks != 3 || stats.mergeTasks != 3 {
		t.Errorf("partition tasks = %d, merge tasks = %d; want 3 and 3 for a shuffle over a 3-band exchange", stats.partitionTasks, stats.mergeTasks)
	}
}

// TestRunStatsCountOneRun: each run's scheduler counts its own shuffle
// work, so a second run of the same plan reports the same counts.
func TestRunStatsCountOneRun(t *testing.T) {
	e := New(WithBands(4))
	src := &algebra.Source{DF: testFrame(80)}
	for i := 0; i < 2; i++ {
		stats := assertAgreesWithEager(t, e, groupByPlan(src))
		if stats.shuffleStages != 1 {
			t.Errorf("run %d: shuffle stages = %d, want 1", i, stats.shuffleStages)
		}
		if stats.mergeTasks != 4 {
			t.Errorf("run %d: merge tasks = %d, want 4 (one per bucket)", i, stats.mergeTasks)
		}
	}
}

// TestConcurrentGroupBySortSessions drives concurrent opportunistic
// sessions — GROUPBY and SORT statements interleaved on one shared engine
// and pool — through session.AsyncEngine. Run under -race this exercises
// the shuffle's cross-task sharing (plan state, routed views, stats).
func TestConcurrentGroupBySortSessions(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(4))
	// Pre-induce the shared frames: lazy domain induction memoizes on the
	// frame, and the sessions (and the final Equal checks) would otherwise
	// race on that benign write from the test's own goroutines.
	df := algebra.InduceFrame(testFrame(300))
	wantGroup, err := eager.New().Execute(groupByPlan(&algebra.Source{DF: df, Name: "shared"}))
	if err != nil {
		t.Fatal(err)
	}
	wantSort, err := eager.New().Execute(sortTestPlan(&algebra.Source{DF: df, Name: "shared"}))
	if err != nil {
		t.Fatal(err)
	}
	wantGroup = algebra.InduceFrame(wantGroup)
	wantSort = algebra.InduceFrame(wantSort)

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := session.New(e, session.Opportunistic, pool)
			h := s.Bind("shared", df)
			gb := s.Statement("gb", groupByPlan(h.Plan()))
			st := s.Statement("st", sortTestPlan(h.Plan()))
			got, err := gb.Collect()
			if err != nil {
				errs <- fmt.Errorf("session %d groupby: %w", i, err)
				return
			}
			if !got.Equal(wantGroup) {
				errs <- fmt.Errorf("session %d groupby result diverged", i)
				return
			}
			got, err = st.Collect()
			if err != nil {
				errs <- fmt.Errorf("session %d sort: %w", i, err)
				return
			}
			if !got.Equal(wantSort) {
				errs <- fmt.Errorf("session %d sort result diverged", i)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
