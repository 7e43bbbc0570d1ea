// Package modin implements the MODIN engine of Section 3: parallel
// execution of dataframe-algebra plans over row-band partitions, scheduled
// on the task-parallel execution layer (internal/exec), with a
// communication-free band-by-band transpose and partial-aggregation
// GROUPBY.
//
// Execution is compile-then-schedule: logical plans are lowered into a
// physical stage DAG (compile.go), where chains of embarrassingly-parallel
// operators fuse into one task per band, the hot repartition points
// (groupby, sort) become two-phase shuffles with one independent future
// per output band (shuffle.go, sort.go), the ordered passes (join probe
// and renumber, fromlabels, bounded windows, limit) are anchored shuffles
// whose band b reads its own band and at most the bands on one side of it,
// and shape-opaque operators are exchange barriers — a band-by-band body
// for transpose, otherwise one gather exchange that calls algebra.Eval — that
// hand their output on as the engine's band count. Every stage's bands are
// thus known when the plan is scheduled; the physical scheduler wires the
// whole DAG at once and drains it asynchronously on the worker pool,
// handing back deferred partition frames and futures (internal/physical).
//
// A plan whose leaves are all in-memory sources holding at most inlineRows
// rows between them, on an engine with the default band count, skips both
// steps: it runs as one algebra.EvalPlan tree walk on the caller. Below that
// size BenchmarkInlineCrossover measured the walk beating the task DAG,
// whose tasks, shuffles and gather cost more than the parallelism earns.
package modin

import (
	"fmt"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/partition"
	"repro/internal/physical"
	"repro/internal/types"
)

// Stats holds the engine's cumulative, task-time counters. Each run's
// fused, exchange and shuffle task counts are in the Stats of the scheduler
// Schedule returns.
type Stats struct {
	// StreamReleasedBands counts the input bands a downstream shuffle
	// released after routing them; SpilledPieces counts routed shuffle pieces
	// written to disk under the engine's spill budget.
	StreamReleasedBands atomic.Int64
	SpilledPieces       atomic.Int64
}

// Engine executes algebra plans in parallel over partitions.
type Engine struct {
	pool  *exec.Pool
	bands int
	stats Stats

	// fixedBands is set by WithBands: every plan then runs the task DAG at
	// that band count, however small its inputs.
	fixedBands bool

	// spill is the out-of-core shuffle ledger (spill.go) every run's
	// scheduler admits its routed pieces through; nil without a spill budget.
	spill *spillLedger
}

// Option configures the engine.
type Option func(*Engine)

// WithPool uses the given worker pool instead of the shared default.
func WithPool(p *exec.Pool) Option { return func(e *Engine) { e.pool = p } }

// WithBands overrides the target partition count per axis (default: the
// pool's worker count). A positive count also keeps every plan on the task
// DAG: plans over small in-memory frames no longer run inline, so the
// partitioned paths stay reachable on small inputs.
func WithBands(n int) Option { return func(e *Engine) { e.bands = n } }

// WithShuffleSpillBudget bounds the cells held by routed-but-not-yet-merged
// shuffle pieces: pieces admitted past the budget spill to disk through
// internal/storage and are re-read lazily when their merge runs. Together
// with the band release this keeps GROUPBY and SORT over a streamed input
// within a fixed memory ceiling instead of failing. An inner/left JOIN
// routes no pieces: its left bands pass through and its right side is
// gathered whole, so the budget does not bound it. 0 (the default)
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
	e := &Engine{pool: exec.Default}
	for _, o := range opts {
		o(e)
	}
	e.fixedBands = e.bands > 0
	if !e.fixedBands {
		e.bands = e.pool.Workers()
	}
	return e
}

// Name identifies the engine.
func (e *Engine) Name() string { return "modin" }

// Pool exposes the execution pool (the session layer schedules background
// work on it).
func (e *Engine) Pool() *exec.Pool { return e.pool }

// Stats exposes the engine's cumulative counters.
func (e *Engine) Stats() *Stats { return &e.stats }

// Schedule compiles the plan and launches its task DAG, returning the root
// handle and the run's scheduler (whose Stats expose per-run fused,
// exchange and shuffle task counts). The run's tasks are already in flight
// when Schedule returns; the handle resolves as they land. A plan that runs
// inline (sources ≤ inlineRows rows in total, default bands) is instead
// walked to completion on the caller: the handle is its resolved one-band
// result and the scheduler a fresh one whose Stats are all zero.
func (e *Engine) Schedule(n algebra.Node) (*physical.Result, *physical.Scheduler, error) {
	if e.inline(n) {
		out, err := walk(n)
		if err != nil {
			return nil, nil, err
		}
		sched := physical.NewScheduler(e.pool)
		res, err := sched.Run(physical.NewSource(partition.New(out, partition.Rows, 1)))
		return res, sched, err
	}
	plan, err := e.Compile(n)
	if err != nil {
		return nil, nil, err
	}
	return e.run(plan)
}

// Execute evaluates the plan and gathers the result into one dataframe.
// The gather runs on the calling goroutine (no extra task) since Execute is
// synchronous anyway, and copies no cell: the result's columns keep the
// bands' storage as chunks (partition.Frame.ToFrame), which a later
// statement at the same band count re-bands without a copy when the bands
// are balanced.
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
// the opportunistic session regime passes back to users (Section 6.1.1). A
// plan that runs inline is one pool task running the whole walk, so the
// caller still never blocks.
func (e *Engine) ExecuteAsync(n algebra.Node) *exec.Future {
	if e.inline(n) {
		return e.pool.Submit(func() (any, error) {
			out, err := walk(n)
			if err != nil {
				return nil, err
			}
			return out, nil
		})
	}
	res, sched, err := e.Schedule(n)
	if err != nil {
		return exec.Failed(err)
	}
	return sched.Gather(res)
}

// ExecutePartitioned evaluates the plan, leaving the result partitioned so
// downstream operators (or head/tail views) can consume bands lazily. The
// returned frame is deferred: its band count is fixed, and each band
// resolves independently as the task behind it lands — an exchange's bands
// when the exchange has run. Task errors in deferred bands surface at
// gather time — Resolve, ToFrame, or RowBand — not from this call.
func (e *Engine) ExecutePartitioned(n algebra.Node) (*partition.Frame, error) {
	res, _, err := e.Schedule(n)
	if err != nil {
		return nil, err
	}
	return res.Frame()
}

// inlineRows is the most in-memory source rows, summed over a plan's
// distinct sources, that the plan may read and still run as one tree walk
// on the caller. It is the largest power of two at which the walk beat the
// task DAG on every BenchmarkInlineCrossover statement shape, single- and
// two-source, on one core and on two.
const inlineRows = 4096

// inline reports whether plan n runs as one algebra.EvalPlan walk on the
// caller: the band count is the engine's default, every leaf is an
// in-memory Source, and those sources hold at most inlineRows rows between
// them (a shared source counts once). A Scan keeps its streamed stage.
func (e *Engine) inline(n algebra.Node) bool {
	if e.fixedBands || n == nil {
		return false
	}
	rows := 0
	for node := range algebra.Uses(n) {
		switch leaf := node.(type) {
		case *algebra.Scan:
			return false
		case *algebra.Source:
			rows += leaf.DF.NRows()
		}
	}
	return rows <= inlineRows
}

// walk evaluates plan n with algebra.EvalPlan on the calling goroutine. A
// panic in an operator (a user's UDF) fails the plan, as it fails a pool
// task on the DAG.
func walk(n algebra.Node) (out *core.DataFrame, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("exec: task panic: %v", r)
		}
	}()
	return algebra.EvalPlan(n, nil)
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
	return res, sched, nil
}

// --- exchange implementations --------------------------------------------
//
// Each exchange receives its inputs as (possibly just-materialized)
// partition frames; the physical scheduler guarantees every input band
// exists before Run is called.

// rePartition splits a kernel result back into row bands.
func (e *Engine) rePartition(df *core.DataFrame) *partition.Frame {
	return partition.New(df, partition.Rows, e.bands)
}

// executeTranspose transposes each row band on its own, the bands in
// parallel on the engine's pool (algebra.TransposeBands): band r's
// transpose is the output's column range r, so no cell moves between bands
// — Section 3.1's communication-free transpose — and the output is one
// band. The storage it is built in is decided over every band, so its
// domains do not depend on the band count.
func (e *Engine) executeTranspose(declared []types.Domain, in *partition.Frame) (*partition.Frame, error) {
	bands := make([]*core.DataFrame, in.RowBands())
	for r := range bands {
		var err error
		if bands[r], err = in.RowBand(r); err != nil {
			return nil, err
		}
	}
	out, err := algebra.TransposeBands(bands, declared, e.pool.ForEach)
	if err != nil {
		return nil, err
	}
	return partition.New(out, partition.Rows, 1), nil
}
