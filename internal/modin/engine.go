// Package modin implements the MODIN engine of Section 3: parallel
// execution of dataframe-algebra plans over row/column/block partitions,
// scheduled on the task-parallel execution layer (internal/exec), with a
// communication-free block transpose and partial-aggregation GROUPBY.
//
// Execution is compile-then-schedule: logical plans are lowered into a
// physical stage DAG (compile.go), where chains of embarrassingly-parallel
// operators fuse into one task per band, the hot repartition points
// (groupby, sort, inner/left join) become two-phase shuffles with one
// independent future per output band (shuffle.go, sort.go), and
// shape-opaque operators (transpose, window, union, ...) keep the gather
// exchange barrier; the physical scheduler then drains the DAG
// asynchronously on the worker pool, handing back deferred partition frames
// and futures (internal/physical).
package modin

import (
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/stats"
	"repro/internal/types"
)

// Stats aggregates physical-scheduler activity across an engine's runs.
// Each run's own counts are reachable through Schedule's scheduler; these
// totals let long-lived sessions observe how much of their work streams
// through shuffles versus falls back to gather exchanges.
type Stats struct {
	// Runs counts scheduled plan executions.
	Runs atomic.Int64
	// FusedTasks and ExchangeTasks mirror the physical scheduler counters.
	FusedTasks    atomic.Int64
	ExchangeTasks atomic.Int64
	// ShuffleStages, ShufflePartitionTasks and ShuffleMergeTasks count the
	// streaming repartition work; ShuffleFallbacks counts shuffles wired
	// late, behind one future, over a shape-opaque input.
	ShuffleStages         atomic.Int64
	ShufflePartitionTasks atomic.Int64
	ShuffleMergeTasks     atomic.Int64
	ShuffleFallbacks      atomic.Int64
	// StreamStages counts morsel-driven scan stages scheduled, StreamBands
	// the bands their grids were sized to, and StreamReleasedBands how many
	// input bands a downstream shuffle released after routing them.
	// SpilledPieces counts routed shuffle pieces written to disk under the
	// engine's spill budget.
	StreamStages        atomic.Int64
	StreamBands         atomic.Int64
	StreamReleasedBands atomic.Int64
	SpilledPieces       atomic.Int64
}

func (s *Stats) add(run *physical.Stats) {
	s.Runs.Add(1)
	s.FusedTasks.Add(run.FusedTasks.Load())
	s.ExchangeTasks.Add(run.ExchangeTasks.Load())
	s.ShuffleStages.Add(run.ShuffleStages.Load())
	s.ShufflePartitionTasks.Add(run.ShufflePartitionTasks.Load())
	s.ShuffleMergeTasks.Add(run.ShuffleMergeTasks.Load())
	s.ShuffleFallbacks.Add(run.ShuffleFallbacks.Load())
	s.StreamStages.Add(run.StreamStages.Load())
	s.StreamBands.Add(run.StreamBands.Load())
	// StreamReleasedBands is deliberately absent: releases happen at task
	// time, after the wiring-time snapshot — the scheduler mirrors them into
	// the cumulative counter via OnBandRelease as they land.
}

// defaultBroadcastLimit is the build-side row estimate above which an
// inner/left equi-join switches from the broadcast probe to the key-shuffled
// hash join. Below it, rebuilding a small hash table per band is cheaper
// than routing both inputs and restoring the probe order.
const defaultBroadcastLimit = 65536

// Engine executes algebra plans in parallel over partitions.
type Engine struct {
	pool  *exec.Pool
	bands int
	stats Stats

	// Statistics-driven physical planning (see stats.go): statsOn gates
	// collection AND every stats-driven strategy, so a stats-less engine
	// plans exactly as the pre-stats engine did.
	statsOn        bool
	broadcastLimit int
	statsMu        sync.Mutex
	statsCache     map[*core.DataFrame]*stats.Table

	// spill is the out-of-core shuffle ledger (spill.go) every run's
	// scheduler admits its routed pieces through; nil without a spill budget.
	spill *spillLedger
}

// Option configures the engine.
type Option func(*Engine)

// WithPool uses the given worker pool instead of the shared default.
func WithPool(p *exec.Pool) Option { return func(e *Engine) { e.pool = p } }

// WithBands overrides the target partition count per axis (default: the
// pool's worker count).
func WithBands(n int) Option { return func(e *Engine) { e.bands = n } }

// WithoutStats disables statistics collection and every stats-driven
// physical decision: joins always broadcast, shuffle buckets cut evenly —
// exactly the zero-stats plans.
func WithoutStats() Option { return func(e *Engine) { e.statsOn = false } }

// WithBroadcastLimit overrides the build-side row estimate above which
// inner/left equi-joins shuffle by key instead of broadcasting (default
// 65536). Tests force it low to exercise the shuffled path on small data.
func WithBroadcastLimit(n int) Option { return func(e *Engine) { e.broadcastLimit = n } }

// WithShuffleSpillBudget bounds the cells held by routed-but-not-yet-merged
// shuffle pieces: pieces admitted past the budget spill to disk through
// internal/storage and are re-read lazily when their merge runs. Together
// with the band release this keeps GROUPBY/SORT/JOIN over a streamed input
// within a fixed memory ceiling instead of failing. 0 (the default)
// disables spilling.
func WithShuffleSpillBudget(cells int) Option {
	return func(e *Engine) {
		e.spill = nil
		if cells > 0 {
			e.spill = &spillLedger{budget: cells, spilled: &e.stats.SpilledPieces}
		}
	}
}

// New returns a MODIN engine backed by the shared default pool.
func New(opts ...Option) *Engine {
	e := &Engine{
		pool:           exec.Default,
		statsOn:        true,
		broadcastLimit: defaultBroadcastLimit,
		statsCache:     make(map[*core.DataFrame]*stats.Table),
	}
	for _, o := range opts {
		o(e)
	}
	if e.bands <= 0 {
		e.bands = e.pool.Workers()
	}
	return e
}

// Name identifies the engine.
func (e *Engine) Name() string { return "modin" }

// Pool exposes the execution pool (the session layer schedules background
// work on it).
func (e *Engine) Pool() *exec.Pool { return e.pool }

// Stats exposes the engine's cumulative scheduler counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Schedule compiles the plan and launches its task DAG, returning the root
// handle and the run's scheduler (whose Stats expose per-run fused,
// exchange and shuffle task counts). The run's tasks are already in flight
// when Schedule returns; the handle resolves as they land.
func (e *Engine) Schedule(n algebra.Node) (*physical.Result, *physical.Scheduler, error) {
	plan, err := e.Compile(n)
	if err != nil {
		return nil, nil, err
	}
	return e.run(plan)
}

// Execute evaluates the plan and gathers the result into one dataframe.
// The gather runs on the calling goroutine (no extra task) since Execute is
// synchronous anyway.
func (e *Engine) Execute(n algebra.Node) (*core.DataFrame, error) {
	res, _, err := e.Schedule(n)
	if err != nil {
		return nil, err
	}
	pf, err := res.Frame()
	if err != nil {
		return nil, err
	}
	return pf.ToFrame()
}

// ExecuteAsync compiles the plan, schedules its task DAG, and returns a
// future of the gathered result without waiting for any task — the handle
// the opportunistic session regime passes back to users (Section 6.1.1).
func (e *Engine) ExecuteAsync(n algebra.Node) *exec.Future {
	res, sched, err := e.Schedule(n)
	if err != nil {
		return exec.Failed(err)
	}
	return sched.Gather(res)
}

// ExecuteCompiled runs an already-compiled physical plan on a fresh
// scheduler and gathers the result. Compiled DAGs hold no per-run state
// (the scheduler owns the memo), so a cached *physical.Node — the server's
// plan cache in particular — can be re-executed any number of times,
// concurrently, without recompiling. Per-run task counts still accumulate
// into the engine's cumulative stats.
func (e *Engine) ExecuteCompiled(plan *physical.Node) (*core.DataFrame, error) {
	res, _, err := e.run(plan)
	if err != nil {
		return nil, err
	}
	pf, err := res.Frame()
	if err != nil {
		return nil, err
	}
	return pf.ToFrame()
}

// ExecutePartitioned evaluates the plan, leaving the result partitioned so
// downstream operators (or head/tail views) can consume blocks lazily. The
// returned frame may be deferred (blocks still computing) when the plan's
// root is a fused or shuffle stage — shuffle output bands resolve
// independently as their merges land; root gather exchanges are waited for
// so the result's band structure is real. Task errors in deferred blocks
// surface at gather time — Resolve, ToFrame, or BlockErr — not from this
// call.
func (e *Engine) ExecutePartitioned(n algebra.Node) (*partition.Frame, error) {
	res, _, err := e.Schedule(n)
	if err != nil {
		return nil, err
	}
	return res.Frame()
}

// run launches a compiled plan's task DAG on a fresh scheduler wired to the
// engine's spill ledger and cumulative counters.
func (e *Engine) run(plan *physical.Node) (*physical.Result, *physical.Scheduler, error) {
	sched := physical.NewScheduler(e.pool)
	sched.OnBandRelease = func() { e.stats.StreamReleasedBands.Add(1) }
	if l := e.spill; l != nil {
		sched.Pieces = l
		l.mu.Lock()
		l.groups = append(l.groups, sched.Group())
		l.mu.Unlock()
	}
	res, err := sched.Run(plan)
	if err != nil {
		return nil, nil, err
	}
	// Wiring-time counters are final once Run returns, so they snapshot
	// here even though the tasks themselves still run; band releases are
	// task-time and arrive through OnBandRelease instead. (The task counts
	// of a stage wired late, behind an exchange, are in the run's own Stats
	// only.)
	e.stats.add(&sched.Stats)
	return res, sched, nil
}

// --- exchange implementations --------------------------------------------
//
// Each exchange receives its inputs as (possibly just-materialized)
// partition frames; the physical scheduler guarantees every input block
// exists before Run is called.

// gather resolves a frame into one dataframe (inputs to whole-frame
// kernels).
func gather(in *partition.Frame) (*core.DataFrame, error) { return in.ToFrame() }

// rePartition splits a kernel result back into row bands.
func (e *Engine) rePartition(df *core.DataFrame) *partition.Frame {
	return partition.New(df, partition.Rows, e.bands)
}

// executeWindow parallelizes direction-agnostic bounded windows (shift,
// diff, rolling) with boundary-row exchange between bands; unbounded
// (expanding) windows gather.
func (e *Engine) executeWindow(spec expr.WindowSpec, in *partition.Frame) (*partition.Frame, error) {
	boundary := 0
	switch spec.Kind {
	case expr.WindowShift, expr.WindowDiff:
		boundary = spec.Offset
		if boundary == 0 {
			boundary = 1
		}
		if boundary < 0 {
			boundary = -boundary
		}
	case expr.WindowRolling:
		boundary = spec.Size - 1
	case expr.WindowExpanding:
		df, err := gather(in)
		if err != nil {
			return nil, err
		}
		out, err := algebra.WindowFrame(df, spec)
		if err != nil {
			return nil, err
		}
		return e.rePartition(out), nil
	}

	full, err := in.EnsureSingleColBand()
	if err != nil {
		return nil, err
	}
	rb := full.RowBands()
	bands := make([]*core.DataFrame, rb)
	for r := 0; r < rb; r++ {
		b, err := full.RowBand(r)
		if err != nil {
			return nil, err
		}
		bands[r] = b
	}
	results, err := exec.MapParallel(e.pool, rb, func(r int) (*core.DataFrame, error) {
		band := bands[r]
		lead := 0
		if !spec.Reverse && r > 0 && boundary > 0 {
			// Prepend the tail of the previous band.
			prev := bands[r-1]
			take := boundary
			if take > prev.NRows() {
				take = prev.NRows()
			}
			ext, err := algebra.VStackFrames(prev.SliceRows(prev.NRows()-take, prev.NRows()), band)
			if err != nil {
				return nil, err
			}
			band, lead = ext, take
		}
		trail := 0
		if spec.Reverse && r < rb-1 && boundary > 0 {
			next := bands[r+1]
			take := boundary
			if take > next.NRows() {
				take = next.NRows()
			}
			ext, err := algebra.VStackFrames(band, next.SliceRows(0, take))
			if err != nil {
				return nil, err
			}
			band, trail = ext, take
		}
		out, err := algebra.WindowFrame(band, spec)
		if err != nil {
			return nil, err
		}
		return out.SliceRows(lead, out.NRows()-trail), nil
	})
	if err != nil {
		return nil, err
	}
	grid := make([][]*core.DataFrame, rb)
	for r := range results {
		grid[r] = []*core.DataFrame{results[r]}
	}
	return partition.FromGrid(grid)
}

// executeJoinGather handles the join kinds the shuffle path does not cover
// (outer joins, whose row order mixes both inputs): gather both sides and
// join whole.
func (e *Engine) executeJoinGather(node *algebra.Join, left, right *partition.Frame) (*partition.Frame, error) {
	rightDF, err := gather(right)
	if err != nil {
		return nil, err
	}
	leftDF, err := gather(left)
	if err != nil {
		return nil, err
	}
	out, err := algebra.JoinFrames(leftDF, rightDF, node.Kind, node.On, node.OnLabels)
	if err != nil {
		return nil, err
	}
	return e.rePartition(out), nil
}

// executeTranspose repartitions to a block grid and transposes blocks in
// place (Section 3.1's communication-free transpose).
func (e *Engine) executeTranspose(schema []types.Domain, in *partition.Frame) (*partition.Frame, error) {
	blocks, err := in.Repartition(partition.Blocks, e.bands)
	if err != nil {
		return nil, err
	}
	return blocks.Transpose(e.pool, schema)
}

// limitPartitioned takes the prefix (n>0) or suffix (n<0) touching only the
// bands that contribute rows.
func (e *Engine) limitPartitioned(in *partition.Frame, n int) (*partition.Frame, error) {
	full, err := in.EnsureSingleColBand()
	if err != nil {
		return nil, err
	}
	var picked []*core.DataFrame
	if n >= 0 {
		remaining := n
		for r := 0; r < full.RowBands() && remaining > 0; r++ {
			band, err := full.RowBand(r)
			if err != nil {
				return nil, err
			}
			take := remaining
			if take > band.NRows() {
				take = band.NRows()
			}
			picked = append(picked, band.SliceRows(0, take))
			remaining -= take
		}
	} else {
		remaining := -n
		var rev []*core.DataFrame
		for r := full.RowBands() - 1; r >= 0 && remaining > 0; r-- {
			band, err := full.RowBand(r)
			if err != nil {
				return nil, err
			}
			take := remaining
			if take > band.NRows() {
				take = band.NRows()
			}
			rev = append(rev, band.SliceRows(band.NRows()-take, band.NRows()))
			remaining -= take
		}
		for i := len(rev) - 1; i >= 0; i-- {
			picked = append(picked, rev[i])
		}
	}
	if len(picked) == 0 {
		picked = []*core.DataFrame{core.Empty()}
	}
	grid := make([][]*core.DataFrame, len(picked))
	for r := range picked {
		grid[r] = []*core.DataFrame{picked[r]}
	}
	return partition.FromGrid(grid)
}
