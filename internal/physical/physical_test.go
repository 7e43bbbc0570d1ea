package physical

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
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
	"repro/internal/types"
	"repro/internal/vector"
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
	return Kernel{Name: "map", Fn: func(b *core.DataFrame) (*core.DataFrame, error) {
		return algebra.MapFrame(b, algebra.IsNullFn())
	}}
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
// chain over band 0 completes even while band 1's input band is still
// being computed.
func TestFusedStageIsPipelined(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(20)
	halves := partition.New(df, partition.Rows, 2)

	gate := make(chan struct{})
	blk0 := exec.Resolved(halves.Band(0))
	blk1 := pool.Submit(func() (any, error) {
		<-gate // band 1 stalls until released
		return halves.Band(1), nil
	})
	src := partition.Deferred([]*exec.Future{blk0, blk1})

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
	for !frame.BandFuture(0).Ready() {
		select {
		case <-deadline:
			t.Fatal("band 0 never completed while band 1 stalled: barrier between operators")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BandFuture(1).Ready() {
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
	ex := NewExchange("count", 3, func(in []*partition.Frame) (*partition.Frame, error) {
		sawRows.Store(int64(in[0].NRows()))
		return in[0], nil
	}, fused)

	s := NewScheduler(pool)
	res, err := s.Run(ex)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Gather(res).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if sawRows.Load() != 15 {
		t.Errorf("exchange saw %d rows, want all 15", sawRows.Load())
	}
	if out.(*core.DataFrame).NRows() != 15 {
		t.Errorf("gathered rows = %d", out.(*core.DataFrame).NRows())
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
	plan := NewFused(identityExchange(src, 3), isNull())

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
	union := NewExchange("pair", 2, func(in []*partition.Frame) (*partition.Frame, error) {
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
	plan := NewExchange("groupby", 2, func(in []*partition.Frame) (*partition.Frame, error) {
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
	if frame.RowBands() != 3 {
		t.Errorf("shuffle output has %d bands, want 3 (one band per bucket)", frame.RowBands())
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
		blk, err := frame.RowBand(b)
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
	frame, err := res.Frame() // shape-known: one band per bucket
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for !frame.BandFuture(0).Ready() {
		select {
		case <-deadline:
			t.Fatal("downstream band 0 never completed while bucket 1's merge was gated: the shuffle is still a barrier")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BandFuture(1).Ready() {
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

// identityExchange hands its input on unchanged as the given number of
// bands.
func identityExchange(in *Node, bands int) *Node {
	return NewExchange("identity", bands, func(in []*partition.Frame) (*partition.Frame, error) {
		return in[0], nil
	}, in)
}

// TestShuffleOverExchangeIsWiredWhenRunReturns: a shuffle over an exchange
// gets its per-band tasks when the plan is scheduled, one partition task per
// band the exchange hands on, while the exchange itself is still gated; the
// fused stage above it is wired too, and every counter is final.
func TestShuffleOverExchangeIsWiredWhenRunReturns(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	gate := make(chan struct{})
	src := NewSource(partition.New(testDF(30), partition.Rows, 3))
	ex := NewExchange("gated", 4, func(in []*partition.Frame) (*partition.Frame, error) {
		<-gate
		return in[0], nil
	}, src)
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewShuffle(modShuffle(2, nil), ex), isNull()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ex.Exchange.Bands; s.Stats.ShufflePartitionTasks.Load() != int64(got) {
		t.Errorf("partition tasks = %d, want %d (one per band the exchange hands on)", s.Stats.ShufflePartitionTasks.Load(), got)
	}
	if got := s.Stats.ShuffleMergeTasks.Load(); got != 2 {
		t.Errorf("merge tasks = %d, want 2 (one per bucket)", got)
	}
	if got := s.Stats.FusedTasks.Load(); got != 2 {
		t.Errorf("fused tasks = %d, want 2 (one per bucket)", got)
	}
	if got := s.Stats.ShuffleFallbacks.Load(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	if frame.RowBands() != 2 || !res.Deferred() {
		t.Errorf("result = %d bands, deferred %v; want 2 deferred bands while the exchange is gated", frame.RowBands(), res.Deferred())
	}
	close(gate)
	withDeadline(t, 10*time.Second, func() {
		out, err := s.Gather(res).Wait()
		if err != nil {
			t.Error(err)
		} else if out.(*core.DataFrame).NRows() != 30 {
			t.Errorf("rows = %d, want 30", out.(*core.DataFrame).NRows())
		}
	})
	if got := s.Stats.ShufflePartitionTasks.Load(); got != 4 {
		t.Errorf("partition tasks after the run = %d, want the 4 counted at schedule time", got)
	}
}

// TestStageOverExchangeStreamsByBand: bucket 0 of a shuffle over an
// exchange merges while bucket 1 is gated, and the fused band chained on it
// lands before bucket 1 does — the stage above an exchange is no barrier.
func TestStageOverExchangeStreamsByBand(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	gate := make(chan struct{})
	sh := modShuffle(2, func(bucket int) {
		if bucket == 1 {
			<-gate
		}
	})
	s := NewScheduler(pool)
	res, err := s.Run(NewFused(NewShuffle(sh, identityExchange(NewSource(partition.New(testDF(40), partition.Rows, 4)), 4)), isNull()))
	if err != nil {
		t.Fatal(err)
	}
	frame, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, 10*time.Second, func() { <-frame.BandFuture(0).Done() })
	if frame.BandFuture(1).Ready() {
		t.Error("bucket 1's band finished while its merge was gated")
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
		t.Errorf("fused tasks = %d, want 2 (one per bucket)", got)
	}
}

// TestStagesOverExchangesOnOneWorker: no pool worker may wait on an
// unfinished task, and a one-worker pool is where that hangs — here through
// two exchanges with fused and shuffle stages between them.
func TestStagesOverExchangesOnOneWorker(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	src := NewSource(partition.New(testDF(60), partition.Rows, 5))
	plan := identityExchange(NewFused(NewShuffle(modShuffle(3, nil), NewFused(identityExchange(NewFused(src, selectEven()), 5), isNull())), isNull()), 3)
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

// TestStagesOverExchangeSurfaceFailures: a failing exchange, a skipped one
// and a failing task above an exchange surface their failure from Gather and
// from Resolve, on a one-worker pool, without hanging.
func TestStagesOverExchangeSurfaceFailures(t *testing.T) {
	pool := exec.NewPool(1)
	defer pool.Close()
	sentinel := errors.New("boom")
	src := NewSource(partition.New(testDF(20), partition.Rows, 2))
	failing := NewExchange("failing", 2, func([]*partition.Frame) (*partition.Frame, error) { return nil, sentinel }, src)
	bad := Kernel{Name: "bad", Fn: func(*core.DataFrame) (*core.DataFrame, error) { return nil, sentinel }}
	for name, plan := range map[string]*Node{
		"exchange fails":       NewShuffle(modShuffle(2, nil), failing),
		"exchange skipped":     NewFused(identityExchange(NewFused(src, bad), 2), isNull()),
		"kernel over exchange": NewFused(identityExchange(src, 2), bad),
	} {
		for _, via := range []string{"Gather", "Resolve"} {
			withDeadline(t, 10*time.Second, func() {
				s := NewScheduler(pool)
				res, err := s.Run(plan)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				if via == "Gather" {
					_, err = s.Gather(res).Wait()
				} else {
					frame, _ := res.Frame()
					err = frame.Resolve()
				}
				if !errors.Is(err, sentinel) {
					t.Errorf("%s via %s: err = %v, want the failure", name, via, err)
				}
			})
		}
	}
}

// TestExchangeHandsOnItsBands: an exchange whose Run returns fewer bands
// than it promised hands on empty bands past the last one, with band 0's
// columns and declared domains and none of its storage — one shared
// zero-row vector per storage domain, however wide the band; the gathered
// frame is Run's frame.
func TestExchangeHandsOnItsBands(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	df, err := testDF(12).AppendColumn(types.String("f"), vector.NewFloat(make([]float64, 12), nil), types.Float)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(pool)
	res, err := s.Run(NewExchange("two", 5, func([]*partition.Frame) (*partition.Frame, error) {
		return partition.New(df, partition.Rows, 2), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := res.Frame()
	if frame.RowBands() != 5 {
		t.Fatalf("%d bands, want 5", frame.RowBands())
	}
	out, err := s.Gather(res).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.(*core.DataFrame).Equal(df) {
		t.Errorf("gathered\n%s\nwant\n%s", out, df)
	}
	band0 := frame.Band(0)
	for r := 2; r < 5; r++ {
		pad := frame.Band(r)
		if pad.NRows() != 0 || !slices.Equal(pad.ColNames(), df.ColNames()) || !slices.Equal(pad.Domains(), band0.Domains()) {
			t.Errorf("band %d = %dx%v %v, want 0 rows of %v %v", r, pad.NRows(), pad.ColNames(), pad.Domains(), df.ColNames(), band0.Domains())
		}
		if pad.Cache() != nil {
			t.Errorf("band %d keeps band 0's cache", r)
		}
		// id and grp store Int, f Float: two vectors, neither band 0's.
		if pad.Col(0) != pad.Col(1) || pad.Col(0) == pad.Col(2) || pad.Col(0).Domain() != types.Int || pad.Col(2).Domain() != types.Float {
			t.Errorf("band %d columns %T %T %T: want one zero-row vector per storage domain", r, pad.Col(0), pad.Col(1), pad.Col(2))
		}
		for j := range pad.NCols() {
			if pad.Col(j) == band0.Col(j) {
				t.Errorf("band %d column %d is band 0's vector", r, j)
			}
		}
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
		return halves.Band(0), nil
	})
	blk1 := pool.Submit(func() (any, error) { return nil, sentinel })
	src := partition.Deferred([]*exec.Future{blk0, blk1})
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
	if _, err := frame.RowBand(0); !errors.Is(err, sentinel) {
		t.Fatalf("band 0 merge err = %v, want the sibling failure", err)
	}
	if merges.Load() != 0 {
		t.Errorf("%d merge bodies ran after the sibling failure", merges.Load())
	}
	if s.Group().Err() == nil {
		t.Error("run group should be cancelled")
	}
}

// TestPrefixReachStreamsBandByBand: an anchored shuffle over a prefix
// reach (the renumber pass) must complete band 0 while band 1's input is
// still gated — band b's merge reads bands 0…b, never a later one.
func TestPrefixReachStreamsBandByBand(t *testing.T) {
	pool := exec.NewPool(4)
	defer pool.Close()
	df := testDF(20)
	halves := partition.New(df, partition.Rows, 2)
	gate := make(chan struct{})
	blk0 := exec.Resolved(halves.Band(0))
	blk1 := pool.Submit(func() (any, error) {
		<-gate
		return halves.Band(1), nil
	})
	src := partition.Deferred([]*exec.Future{blk0, blk1})
	sh := &Shuffle{
		Name:  "renumber",
		Reach: ReachPrefix,
		Merge: func(b int, pieces []Piece, _ any) (*core.DataFrame, error) {
			if len(pieces) != b+1 {
				return nil, fmt.Errorf("band %d read %d bands, want %d", b, len(pieces), b+1)
			}
			return pieces[b].Frame()
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
	for !frame.BandFuture(0).Ready() {
		select {
		case <-deadline:
			t.Fatal("band 0 never completed while band 1 was gated: a prefix reach barriers on later bands")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if frame.BandFuture(1).Ready() {
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
	if _, err := frame.RowBand(0); err == nil {
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
