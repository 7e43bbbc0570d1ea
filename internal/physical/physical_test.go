package physical

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/partition"
)

func testDF(rows int) *core.DataFrame {
	records := make([][]any, rows)
	for i := range records {
		records[i] = []any{i, i % 5}
	}
	return core.MustFromRecords([]string{"id", "grp"}, records)
}

func selectEven() Kernel {
	return Kernel{
		Name: "selection",
		Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.SelectRows(b, func(r expr.Row) bool { return r.Value(0).Int()%2 == 0 }), nil
		},
	}
}

func isNull() Kernel {
	return Kernel{
		Name:        "map",
		Elementwise: true,
		Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
			return algebra.MapFrame(b, algebra.IsNullFn())
		},
	}
}

// TestFusedChainOneTaskPerBand is the acceptance test for fusion: a
// filter→map chain over a 4-band frame must schedule exactly 4 tasks — one
// per band running the whole kernel chain — not 8 (one per operator per
// band) and no barrier in between.
func TestFusedChainOneTaskPerBand(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df := testDF(40)
	src := NewSource(partition.New(df, partition.Rows, 4))
	plan := NewFused(src, selectEven(), isNull())

	s := NewScheduler(pool)
	res, err := s.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats.FusedTasks.Load(); got != 4 {
		t.Errorf("fused tasks = %d, want 4 (one per band)", got)
	}
	if got := s.Stats.FusedStages.Load(); got != 1 {
		t.Errorf("fused stages = %d, want 1", got)
	}
	if got := s.Stats.ExchangeTasks.Load(); got != 0 {
		t.Errorf("exchange tasks = %d, want 0", got)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	out, err := frame.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 20 {
		t.Errorf("rows = %d, want 20", out.NRows())
	}
}

// TestFusedStageIsPipelined proves there is no inter-operator barrier: the
// chain over band 0 completes even while band 1's input block is still
// being computed.
func TestFusedStageIsPipelined(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(20)
	halves := partition.New(df, partition.Rows, 2)

	gate := make(chan struct{})
	blk0 := exec.Resolved(halves.Block(0, 0))
	blk1 := pool.Submit(func() (any, error) {
		<-gate // band 1 stalls until released
		return halves.Block(1, 0), nil
	})
	src, err := partition.Deferred([][]*exec.Future{{blk0}, {blk1}})
	if err != nil {
		t.Fatal(err)
	}

	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewSource(src), selectEven(), isNull()))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	// Band 0's fused chain must complete while band 1 is stalled.
	deadline := time.After(5 * time.Second)
	for !frame.BlockFuture(0, 0).Ready() {
		select {
		case <-deadline:
			t.Fatal("band 0 never completed while band 1 stalled: barrier between operators")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BlockFuture(1, 0).Ready() {
		t.Fatal("band 1 finished while its input was stalled")
	}
	close(gate)
	out, err := frame.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 10 {
		t.Errorf("rows = %d", out.NRows())
	}
}

func TestExchangeBarrierSeesAllInputs(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(30)
	src := NewSource(partition.New(df, partition.Rows, 3))
	fused := NewFused(src, selectEven())
	var sawRows atomic.Int64
	ex := NewExchange("count", func(in []*partition.Frame) (*partition.Frame, error) {
		sawRows.Store(int64(in[0].NRows()))
		return in[0], nil
	}, fused)

	s := NewScheduler(pool)
	res, err := s.Run(ex)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if sawRows.Load() != 15 {
		t.Errorf("exchange saw %d rows, want all 15", sawRows.Load())
	}
	if frame.NRows() != 15 {
		t.Errorf("frame rows = %d", frame.NRows())
	}
	if got := s.Stats.ExchangeStages.Load(); got != 1 {
		t.Errorf("exchange stages = %d", got)
	}
}

func TestFusedAfterExchangeRuns(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df := testDF(24)
	src := NewSource(partition.New(df, partition.Rows, 3))
	plan := NewFused(identityExchange(src), isNull())

	s := NewScheduler(pool)
	res, err := s.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Gather(res).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.(*core.DataFrame).NRows() != 24 {
		t.Error("post-exchange fused stage wrong")
	}
}

func TestKernelErrorCancelsRun(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df := testDF(40)
	src := NewSource(partition.New(df, partition.Rows, 4))
	sentinel := errors.New("kernel boom")
	bad := Kernel{Name: "bad", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
		if b.Value(0, 0).Int() == 0 {
			return nil, sentinel
		}
		return b, nil
	}}
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(src, bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Gather(res).Wait(); !errors.Is(err, sentinel) {
		t.Errorf("gather err = %v, want %v", err, sentinel)
	}
	if s.Group().Err() == nil {
		t.Error("failing kernel should cancel the run's group")
	}
}

func TestSharedStageScheduledOnce(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df := testDF(20)
	var runs atomic.Int64
	counting := Kernel{Name: "count", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
		runs.Add(1)
		return b, nil
	}}
	shared := NewFused(NewSource(partition.New(df, partition.Rows, 2)), counting)
	union := NewExchange("pair", func(in []*partition.Frame) (*partition.Frame, error) {
		return in[0], nil
	}, shared, shared)

	s := NewScheduler(pool)
	res, err := s.Run(union)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Gather(res).Wait(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 2 { // one per band, NOT doubled for the second consumer
		t.Errorf("shared stage kernels ran %d times, want 2", runs.Load())
	}
}

func TestRenderAndStages(t *testing.T) {
	df := testDF(10)
	src := NewSource(partition.New(df, partition.Rows, 2))
	plan := NewExchange("groupby", func(in []*partition.Frame) (*partition.Frame, error) {
		return in[0], nil
	}, NewFused(src, selectEven(), isNull()))
	text := Render(plan)
	for _, want := range []string{"EXCHANGE[groupby]", "FUSED[selection→map]", "SOURCE"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
	fused, exchanges := Stages(plan)
	if fused != 1 || exchanges != 1 {
		t.Errorf("stages = %d fused, %d exchanges", fused, exchanges)
	}
	if (&Node{}).Describe() != "EMPTY" {
		t.Error("empty node describe")
	}
}

func TestEmptyStageErrors(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	s := NewScheduler(pool)
	if _, err := s.Run(&Node{}); err == nil {
		t.Error("empty stage should error")
	}
}

// modShuffle routes rows to buckets by id % buckets and vstacks each
// bucket's routed pieces — a minimal but real row shuffle for the tests.
func modShuffle(buckets int, mergeHook func(bucket int)) *Shuffle {
	return &Shuffle{
		Name:    "mod",
		Buckets: buckets,
		Partition: func(_ int, df *core.DataFrame, _ any) ([]*core.DataFrame, error) {
			assign := make([]int, df.NRows())
			for i := range assign {
				assign[i] = int(df.Value(i, 0).Int()) % buckets
			}
			return partition.SplitRows(df, assign, buckets)
		},
		Merge: func(bucket int, pieces []Piece, _ any) (*core.DataFrame, error) {
			if mergeHook != nil {
				mergeHook(bucket)
			}
			frames, err := Frames(pieces)
			if err != nil {
				return nil, err
			}
			return algebra.VStackFrames(frames...)
		},
	}
}

// TestShuffleSchedulesPerBandTasks is the tentpole acceptance test: a
// shuffle over a 4-band input with 3 buckets schedules 4 partition tasks
// and 3 merge tasks — one per OUTPUT band — and its result is a
// shape-known deferred frame with one independent future per bucket.
func TestShuffleSchedulesPerBandTasks(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	src := NewSource(partition.New(testDF(60), partition.Rows, 4))
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(modShuffle(3, nil), src))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.RowBands() != 3 || frame.ColBands() != 1 {
		t.Errorf("shuffle output grid = %dx%d, want 3x1 (one band per bucket)", frame.RowBands(), frame.ColBands())
	}
	if got := s.Stats.ShuffleStages.Load(); got != 1 {
		t.Errorf("shuffle stages = %d", got)
	}
	if got := s.Stats.ShufflePartitionTasks.Load(); got != 4 {
		t.Errorf("partition tasks = %d, want 4 (one per input band)", got)
	}
	if got := s.Stats.ShuffleMergeTasks.Load(); got != 3 {
		t.Errorf("merge tasks = %d, want 3 (one per output band)", got)
	}
	if err := frame.Resolve(); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		blk, err := frame.BlockErr(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if blk.NRows() != 20 {
			t.Errorf("bucket %d rows = %d, want 20", b, blk.NRows())
		}
		for i := 0; i < blk.NRows(); i++ {
			if int(blk.Value(i, 0).Int())%3 != b {
				t.Fatalf("row %d of bucket %d routed wrong: id=%v", i, b, blk.Value(i, 0))
			}
		}
	}
}

// TestShuffleDownstreamStartsBeforeShuffleCompletes proves the streaming
// property the gather exchange lacked: a fused kernel chained on bucket 0
// completes while bucket 1's merge is still gated — downstream work starts
// when ITS band lands, not when the whole shuffle does.
func TestShuffleDownstreamStartsBeforeShuffleCompletes(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	gate := make(chan struct{})
	sh := modShuffle(2, func(bucket int) {
		if bucket == 1 {
			<-gate
		}
	})
	src := NewSource(partition.New(testDF(40), partition.Rows, 4))
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewShuffle(sh, src), isNull()))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame() // shape-known: one block per bucket
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !frame.BlockFuture(0, 0).Ready() {
		select {
		case <-deadline:
			t.Fatal("downstream band 0 never completed while bucket 1's merge was gated: the shuffle is still a barrier")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BlockFuture(1, 0).Ready() {
		t.Fatal("bucket 1 finished while its merge was gated")
	}
	close(gate)
	out, err := frame.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 40 {
		t.Errorf("rows = %d", out.NRows())
	}
}

// TestAnchoredShuffleSummarizePlan exercises the anchored (pass-through)
// form plus the summarize→plan pre-phase: band row counts become prefix
// offsets, and each merge sees the shared plan.
func TestAnchoredShuffleSummarizePlan(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	sh := &Shuffle{
		Name: "offsets",
		Summarize: func(_ int, df *core.DataFrame) (any, error) {
			return df.NRows(), nil
		},
		Plan: func(summaries []any, _ []*partition.Frame) (any, error) {
			offsets := make([]int, len(summaries)+1)
			for r, s := range summaries {
				offsets[r+1] = offsets[r] + s.(int)
			}
			return offsets, nil
		},
		Merge: func(band int, pieces []Piece, plan any) (*core.DataFrame, error) {
			if plan.([]int)[band] != band*10 {
				return nil, errors.New("plan offsets wrong")
			}
			return pieces[0].Frame()
		},
	}
	src := NewSource(partition.New(testDF(30), partition.Rows, 3))
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(sh, src))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if err := frame.Resolve(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats.ShuffleSummaryTasks.Load(); got != 3 {
		t.Errorf("summary tasks = %d, want 3", got)
	}
	if got := s.Stats.ShufflePlanTasks.Load(); got != 1 {
		t.Errorf("plan tasks = %d, want 1", got)
	}
	if got := s.Stats.ShuffleMergeTasks.Load(); got != 3 {
		t.Errorf("anchored merge tasks = %d, want 3 (one per input band)", got)
	}
	if frame.NRows() != 30 {
		t.Errorf("rows = %d", frame.NRows())
	}
}

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

func identityExchange(in *Node) *Node {
	return NewExchange("identity", func(in []*partition.Frame) (*partition.Frame, error) {
		return in[0], nil
	}, in)
}

// TestShuffleOverOpaqueInputWiresLate: a shuffle whose input shape is
// unknown at schedule time (downstream of a gather exchange) gets the same
// per-band tasks as any other, wired once the input lands, behind ONE
// future — and still counts as a fallback.
func TestShuffleOverOpaqueInputWiresLate(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	src := NewSource(partition.New(testDF(30), partition.Rows, 3))
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(modShuffle(2, nil), identityExchange(src)))
	if err != nil {
		t.Fatal(err)
	}
	if res.frame != nil {
		t.Error("a late-wired stage must hand its consumer one future, not a block grid")
	}
	if got := s.Stats.ShuffleFallbacks.Load(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats.ShufflePartitionTasks.Load(); got != 3 {
		t.Errorf("partition tasks = %d, want 3 (one per band of the landed input)", got)
	}
	if got := s.Stats.ShuffleMergeTasks.Load(); got != 2 {
		t.Errorf("merge tasks = %d, want 2 (one per bucket)", got)
	}
	if !frame.Ready() {
		t.Error("the late-wired stage resolved before its blocks landed")
	}
	if frame.RowBands() != 2 || frame.NRows() != 30 {
		t.Errorf("late-wired shuffle output = %d bands, %d rows", frame.RowBands(), frame.NRows())
	}
}

// TestLateWiredStageIsABarrier: bucket 0 of a late-wired shuffle merges
// while bucket 1 is gated, but the stage's future — all its consumer can
// chain on — stays unresolved until every block has landed.
func TestLateWiredStageIsABarrier(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	gate := make(chan struct{})
	merged0 := make(chan struct{})
	sh := modShuffle(2, func(bucket int) {
		if bucket == 0 {
			close(merged0)
		} else {
			<-gate
		}
	})
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewShuffle(sh, identityExchange(NewSource(partition.New(testDF(40), partition.Rows, 4)))), isNull()))
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, 10*time.Second, func() { <-merged0 })
	if !res.Deferred() {
		t.Error("downstream of a late-wired shuffle finished while bucket 1's merge was gated")
	}
	close(gate)
	withDeadline(t, 10*time.Second, func() {
		out, err := s.Gather(res).Wait()
		if err != nil {
			t.Error(err)
		} else if out.(*core.DataFrame).NRows() != 40 {
			t.Errorf("rows = %d", out.(*core.DataFrame).NRows())
		}
	})
	if got := s.Stats.FusedTasks.Load(); got != 2 {
		t.Errorf("fused tasks = %d, want 2 (one per bucket of the late-wired shuffle)", got)
	}
}

// TestLateWiringOnOneWorker: late wiring must never park a pool worker on
// an unfinished task, and a one-worker pool is where that hangs.
func TestLateWiringOnOneWorker(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	src := NewSource(partition.New(testDF(60), partition.Rows, 5))
	plan := NewFused(NewShuffle(modShuffle(3, nil), NewFused(identityExchange(NewFused(src, selectEven())), isNull())), isNull())
	withDeadline(t, 20*time.Second, func() {
		s := NewScheduler(pool)
		res, err := s.Run(plan)
		if err != nil {
			t.Error(err)
			return
		}
		out, err := s.Gather(res).Wait()
		if err != nil {
			t.Error(err)
		} else if out.(*core.DataFrame).NRows() != 30 {
			t.Errorf("rows = %d, want 30", out.(*core.DataFrame).NRows())
		}
	})
}

// TestLateWiringSurfacesFailures: a failing input and a failing late-wired
// task both resolve the stage's future with the failure instead of hanging.
func TestLateWiringSurfacesFailures(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	sentinel := errors.New("boom")
	src := NewSource(partition.New(testDF(20), partition.Rows, 2))
	failing := NewExchange("failing", func([]*partition.Frame) (*partition.Frame, error) { return nil, sentinel }, src)
	bad := Kernel{Name: "bad", Fn: func(*core.DataFrame) (*core.DataFrame, error) { return nil, sentinel }}
	for name, plan := range map[string]*Node{
		"input fails":  NewShuffle(modShuffle(2, nil), failing),
		"kernel fails": NewFused(identityExchange(src), bad),
	} {
		withDeadline(t, 10*time.Second, func() {
			s := NewScheduler(pool)
			res, err := s.Run(plan)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if _, err := res.Frame(); !errors.Is(err, sentinel) {
				t.Errorf("%s: err = %v, want the failure", name, err)
			}
		})
	}
}

// TestRowKernelOverBlockGrid: a row kernel over a grid with several column
// bands runs once per ROW band, over the band stacked to full width.
func TestRowKernelOverBlockGrid(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df := testDF(12)
	var widths atomic.Int64
	wide := Kernel{Name: "wide", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
		widths.Add(int64(b.NCols()))
		return b, nil
	}}
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewSource(partition.New(df, partition.Blocks, 2)), wide))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Gather(res).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*core.DataFrame).Equal(df) {
		t.Error("row kernel over a block grid changed the frame")
	}
	if got := s.Stats.FusedTasks.Load(); got != 2 {
		t.Errorf("fused tasks = %d, want 2 (one per row band)", got)
	}
	if got := widths.Load(); got != 4 {
		t.Errorf("kernel saw %d columns over 2 bands, want full width (2) each", got)
	}
}

// ledger is a PieceStore that keeps every piece and counts the traffic.
type ledger struct {
	mu            sync.Mutex
	held          map[*core.DataFrame]bool
	admits, takes int
}

func (l *ledger) Admit(df *core.DataFrame) (func() (*core.DataFrame, error), error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.admits++
	df = df.Detach()
	l.held[df] = true
	return func() (*core.DataFrame, error) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.takes++
		if !l.held[df] {
			return nil, errors.New("piece taken twice")
		}
		delete(l.held, df)
		return df, nil
	}, nil
}

// TestPieceStoreAdmitsEveryRoutedPiece: with a piece store on the run, every
// routed piece is admitted once and taken once, each transient input band
// is released once routed, and the producer is told it may wait on releases
// only when a band's release does not wait on the all-band plan.
func TestPieceStoreAdmitsEveryRoutedPiece(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	for _, planned := range []bool{false, true} {
		sh := modShuffle(3, nil)
		if planned { // like SORT: partition waits for the all-band plan
			sh.Summarize = func(int, *core.DataFrame) (any, error) { return 0, nil }
			sh.Plan = func([]any, []*partition.Frame) (any, error) { return 0, nil }
		}
		in := partition.New(testDF(40), partition.Rows, 4).MarkTransient()
		store := &ledger{held: map[*core.DataFrame]bool{}}
		var released atomic.Int64
		s := NewScheduler(pool)
		s.Pieces = store
		s.OnBandRelease = func() { released.Add(1) }
		res, err := s.Run(NewShuffle(sh, NewSource(in)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Gather(res).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if out.(*core.DataFrame).NRows() != 40 {
			t.Errorf("rows = %d", out.(*core.DataFrame).NRows())
		}
		if store.admits != 12 || store.takes != 12 || len(store.held) != 0 {
			t.Errorf("planned=%v: %d admits, %d takes, %d pieces left; want 12, 12, 0", planned, store.admits, store.takes, len(store.held))
		}
		if got := s.Stats.StreamReleasedBands.Load(); got != 4 || released.Load() != 4 {
			t.Errorf("planned=%v: released %d bands (%d mirrored), want 4", planned, got, released.Load())
		}
		if in.Releasing() == planned {
			t.Errorf("planned=%v: Releasing() = %v", planned, in.Releasing())
		}
	}
}

// TestShuffleSiblingFailureSkipsIndependentMerges: in an anchored shuffle
// no merge depends on another band's input, yet when band 1's input task
// fails, band 0's merge — still waiting on its gated input — must be
// skipped via the run's cancellation group rather than run (or hang).
func TestShuffleSiblingFailureSkipsIndependentMerges(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(20)
	halves := partition.New(df, partition.Rows, 2)
	gate := make(chan struct{})
	defer close(gate)
	sentinel := errors.New("band 1 input failed")
	blk0 := pool.Submit(func() (any, error) {
		<-gate // band 0's input never resolves during the test window
		return halves.Block(0, 0), nil
	})
	blk1 := pool.Submit(func() (any, error) { return nil, sentinel })
	src, err := partition.Deferred([][]*exec.Future{{blk0}, {blk1}})
	if err != nil {
		t.Fatal(err)
	}
	var merges atomic.Int64
	sh := &Shuffle{
		Name: "anchored",
		Merge: func(_ int, pieces []Piece, _ any) (*core.DataFrame, error) {
			merges.Add(1)
			return pieces[0].Frame()
		},
	}
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(sh, NewSource(src)))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	// Band 0's merge must resolve (skipped) even though its own input is
	// still gated: the group cancellation from band 1 reaches it mid-wait.
	if _, err := frame.BlockErr(0, 0); !errors.Is(err, sentinel) {
		t.Fatalf("band 0 merge err = %v, want the sibling failure", err)
	}
	if merges.Load() != 0 {
		t.Errorf("%d merge bodies ran after the sibling failure", merges.Load())
	}
	if s.Group().Err() == nil {
		t.Error("run group should be cancelled")
	}
}

// TestPrefixPlanShuffleStreamsBandByBand: a prefix-planned anchored
// shuffle (the join renumber pass) must complete band 0 while band 1's
// input is still gated — band b depends on earlier bands' summaries only,
// never on later ones.
func TestPrefixPlanShuffleStreamsBandByBand(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(20)
	halves := partition.New(df, partition.Rows, 2)
	gate := make(chan struct{})
	blk0 := exec.Resolved(halves.Block(0, 0))
	blk1 := pool.Submit(func() (any, error) {
		<-gate
		return halves.Block(1, 0), nil
	})
	src, err := partition.Deferred([][]*exec.Future{{blk0}, {blk1}})
	if err != nil {
		t.Fatal(err)
	}
	sh := &Shuffle{
		Name: "renumber",
		Summarize: func(_ int, df *core.DataFrame) (any, error) {
			return df.NRows(), nil
		},
		PrefixPlan: func(prefix []any) (any, error) {
			off := 0
			for _, s := range prefix {
				off += s.(int)
			}
			return off, nil
		},
		Merge: func(_ int, pieces []Piece, plan any) (*core.DataFrame, error) {
			if plan.(int) < 0 {
				return nil, errors.New("bad offset")
			}
			return pieces[0].Frame()
		},
	}
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(sh, NewSource(src)))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !frame.BlockFuture(0, 0).Ready() {
		select {
		case <-deadline:
			t.Fatal("band 0 never completed while band 1 was gated: prefix plan barriers on later bands")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BlockFuture(1, 0).Ready() {
		t.Fatal("band 1 finished while its input was gated")
	}
	close(gate)
	if err := frame.Resolve(); err != nil {
		t.Fatal(err)
	}
	if frame.NRows() != 20 {
		t.Errorf("rows = %d", frame.NRows())
	}
}

// TestShuffleValidation covers the construction error paths.
func TestShuffleValidation(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	src := NewSource(partition.New(testDF(4), partition.Rows, 1))
	for name, sh := range map[string]*Shuffle{
		"no merge":           {Name: "bad"},
		"no buckets":         {Name: "bad", Partition: func(int, *core.DataFrame, any) ([]*core.DataFrame, error) { return nil, nil }, Merge: func(int, []Piece, any) (*core.DataFrame, error) { return nil, nil }},
		"sides without plan": {Name: "bad", Merge: func(int, []Piece, any) (*core.DataFrame, error) { return nil, nil }},
	} {
		n := NewShuffle(sh, src)
		if name == "sides without plan" {
			n = NewShuffle(sh, src, src)
		}
		if _, err := NewScheduler(pool).Run(n); err == nil {
			t.Errorf("%s: schedule should fail", name)
		}
	}
	// A partition hook returning the wrong piece count fails the run.
	bad := &Shuffle{
		Name:    "bad-pieces",
		Buckets: 2,
		Partition: func(int, *core.DataFrame, any) ([]*core.DataFrame, error) {
			return []*core.DataFrame{nil}, nil
		},
		Merge: func(_ int, pieces []Piece, _ any) (*core.DataFrame, error) {
			return core.Empty(), nil
		},
	}
	s := NewScheduler(pool)
	res, err := s.Run(NewShuffle(bad, src))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := frame.BlockErr(0, 0); err == nil {
		t.Error("wrong piece count should fail the merge")
	}
}

func TestResultDeferredReporting(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	gate := make(chan struct{})
	slow := Kernel{Name: "slow", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
		<-gate
		return b, nil
	}}
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewSource(partition.New(testDF(8), partition.Rows, 2)), slow))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deferred() {
		t.Error("result should be deferred while kernels are gated")
	}
	close(gate)
	if _, err := s.Gather(res).Wait(); err != nil {
		t.Fatal(err)
	}
	if res.Deferred() {
		t.Error("result should not be deferred after completion")
	}
}
