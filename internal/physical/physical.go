// Package physical is the physical-plan layer between the dataframe algebra
// and the task-parallel execution engine: logical plans are *compiled* into
// a DAG of physical stages, and the scheduler lowers those stages onto
// per-band tasks on an exec.Pool.
//
// Three stage shapes exist, mirroring the communication regimes of the
// MODIN architecture (Petersohn et al., Section 3):
//
//   - Fused stages chain embarrassingly-parallel per-band kernels
//     (selection, projection, map, rename, ...) into ONE task per band: a
//     filter→map chain over an 8-band frame schedules 8 tasks total, with
//     no inter-operator barrier — band 3's map may run while band 7's
//     filter is still queued.
//
//   - Shuffle stages are the streaming repartition points (groupby, sort):
//     a two-phase partition→route→merge lowering where each OUTPUT band is
//     its own task — downstream fused chains start as soon as the band that
//     feeds them lands, not when the whole shuffle does. An anchored
//     shuffle (join probe, renumber, window) routes nothing: output band b
//     merges the input bands its Reach names.
//
//   - Exchange stages are the gather barriers kept for shape-opaque
//     operators (transpose, expanding window, union, ...): they depend on
//     every input band and run as a single coordinating task that may
//     itself fan out. The task hands its output on as a fixed number of row
//     bands, each a promise it resolves, so the stages above an exchange
//     are wired with the rest of the plan, one task per band.
//
// Every stage's bands are known when the plan is scheduled: the scheduler
// wires the whole task DAG in Run and returns deferred partition.Frames
// (future bands) without waiting, so callers — the opportunistic session
// regime in particular — hold unresolved handles and only block at
// gather/render time. A failing task cancels the plan's exec.Group,
// skipping the query's remaining tasks.
package physical

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/partition"
)

// Kernel is one embarrassingly-parallel operator lowered into a fused
// stage: a pure transform of one full-width row band.
type Kernel struct {
	// Name labels the kernel in plan renderings ("selection", "map", ...).
	Name string
	// Desc is the logical operator the kernel implements (its Describe()
	// text); the scheduler puts it in front of the kernel's failures, so a
	// deep chain's error names the operator that failed.
	Desc string
	// Fn transforms one band.
	Fn func(*core.DataFrame) (*core.DataFrame, error)
}

// Exchange is a repartition point: a stage that must observe all of its
// inputs' bands before producing output. Run receives the materialized
// input frames in input order.
type Exchange struct {
	// Name labels the exchange in plan renderings ("groupby", "sort", ...).
	Name string
	// Desc is the logical operator's description, as on Kernel.
	Desc string
	// Bands is the number of row bands the exchange hands downstream, fixed
	// when the plan is scheduled: band r is Run's row band r stacked to full
	// width, and the bands past Run's last are empty, with band 0's columns
	// and declared domains. Run may return at most Bands row bands.
	Bands int
	// Run produces the stage's (materialized) output frame.
	Run func(inputs []*partition.Frame) (*partition.Frame, error)
}

// Shuffle is a two-phase repartition stage (partition → route → merge): a
// per-input-band partition task splits its band into per-bucket pieces, and
// a per-output-band merge task combines only the pieces routed to it. Each
// output band is therefore its own future — downstream fused stages chain
// on the band that feeds them and start as soon as *its* merge lands, not
// when the whole shuffle does. (Contrast Exchange, which funnels everything
// through one coordinating task: the fallback for shape-opaque operators.)
//
// An optional summarize→plan pre-phase computes shared state from small
// per-band summaries (sampled range bounds for SORT); side inputs are
// resolved whole and handed to Plan (a join's right side, over which Plan
// builds the one hash table every anchored probe merge reads). A shuffle
// without a plan — GROUPBY's, which routes by key hash alone — partitions
// each band the moment it exists, and a run with a piece store releases a
// transient band as soon as it is routed.
type Shuffle struct {
	// Name labels the stage in plan renderings ("groupby", "sort", ...).
	Name string
	// Desc is the logical operator's description, as on Kernel; it prefixes
	// the failures of every phase hook.
	Desc string
	// Buckets is the number of output bands when Partition is set. When
	// Partition is nil the shuffle is *anchored*: output band b is produced
	// from the input bands Reach names, no rows are routed, and Buckets is
	// ignored.
	Buckets int
	// Reach (anchored shuffles only) names the input bands output band b's
	// merge reads: band b alone (ReachBand, the default), bands 0…b
	// (ReachPrefix) or bands b…n−1 (ReachSuffix). The merge task depends on
	// exactly those bands, so a prefix pass still streams band by band:
	// band b never waits on a later band.
	Reach Reach
	// Summarize (optional) extracts a small per-band summary for Plan; it
	// runs only when Plan is set.
	Summarize func(band int, df *core.DataFrame) (any, error)
	// Plan (optional) folds the band summaries — indexed by input band —
	// and the materialized side inputs into routing state passed to every
	// Partition and Merge call. Required when the stage has side inputs.
	Plan func(summaries []any, sides []*partition.Frame) (any, error)
	// Partition splits input band `band` into exactly Buckets pieces;
	// piece b is routed to output band b. Nil marks an anchored shuffle.
	// When the run has a PieceStore the band may be released the moment the
	// call returns, so a piece may be a view into the band only because the
	// store detaches or writes out what it admits.
	Partition func(band int, df *core.DataFrame, plan any) ([]*core.DataFrame, error)
	// Merge combines the pieces routed to output band `bucket` (one per
	// input band, in band order) into that output band. Anchored shuffles
	// receive the input bands their Reach names, in band order.
	Merge func(bucket int, pieces []Piece, plan any) (*core.DataFrame, error)
}

// Reach is the span of input bands an anchored shuffle's merge reads.
type Reach int

const (
	// ReachBand reads output band b's own input band.
	ReachBand Reach = iota
	// ReachPrefix reads input bands 0…b: band b is the last piece.
	ReachPrefix
	// ReachSuffix reads input bands b…n−1: band b is the first piece.
	ReachSuffix
)

// bands returns the input bands [lo, hi) output band b reads out of n.
func (r Reach) bands(b, n int) (lo, hi int) {
	switch r {
	case ReachPrefix:
		return 0, b + 1
	case ReachSuffix:
		return b, n
	}
	return b, b + 1
}

// Piece is one routed frame on its way from a partition task to the merge
// that consumes it: in memory, or held by the run's PieceStore. An anchored
// shuffle's merge gets its input bands as pieces read on demand.
type Piece struct {
	df   *core.DataFrame
	take func() (*core.DataFrame, error) // set once the run's store admitted the piece, or to read a band
}

// PiecesOf wraps frames already in memory as pieces.
func PiecesOf(frames ...*core.DataFrame) []Piece {
	pieces := make([]Piece, len(frames))
	for i, df := range frames {
		pieces[i].df = df
	}
	return pieces
}

// Frame hands the piece's rows to its merge. A stored piece is taken back
// from the store — its budget refunded, or its file read and deleted — so a
// merge calls Frame once per piece, and a merge that folds its pieces one at
// a time holds one spilled piece at a time.
func (p Piece) Frame() (*core.DataFrame, error) {
	if p.take != nil {
		return p.take()
	}
	return p.df, nil
}

// Frames resolves every piece, in order.
func Frames(pieces []Piece) ([]*core.DataFrame, error) {
	frames := make([]*core.DataFrame, len(pieces))
	for i, p := range pieces {
		df, err := p.Frame()
		if err != nil {
			return nil, err
		}
		frames[i] = df
	}
	return frames, nil
}

// PieceStore bounds what routed pieces hold between the partition task that
// cuts them and the merge that consumes them. A run that has one
// (Scheduler.Pieces) admits every routed piece through it and releases each
// transient input band as soon as the band is routed, so a shuffle over a
// streamed input degrades to disk instead of accumulating the input.
type PieceStore interface {
	// Admit takes over one routed piece — kept in memory, cut loose from
	// the band it was routed from, or written out — and returns the function
	// that ends its stay and hands its frame to the merge, called once.
	Admit(df *core.DataFrame) (take func() (*core.DataFrame, error), err error)
}

// Node is one stage of a physical plan DAG. Exactly one of Source, Kernels,
// Shuffle and Exchange is set.
type Node struct {
	// Source is a leaf: an already-partitioned frame.
	Source *partition.Frame
	// Stream is a morsel-driven leaf: bands parse incrementally and flow
	// through the stage's own fused kernel chain as they arrive.
	Stream *StreamSource
	// Kernels is a fused chain applied per band over Inputs[0].
	Kernels []Kernel
	// Shuffle is a streaming repartition stage over Inputs[0], with
	// Inputs[1:] as whole-frame side inputs to its plan phase.
	Shuffle *Shuffle
	// Exchange is a barrier stage over Inputs.
	Exchange *Exchange
	// Inputs are the stage's input stages.
	Inputs []*Node
}

// NewSource wraps a partitioned frame as a leaf stage.
func NewSource(f *partition.Frame) *Node { return &Node{Source: f} }

// NewFused chains kernels over an input stage as one fused stage.
func NewFused(in *Node, kernels ...Kernel) *Node {
	return &Node{Kernels: kernels, Inputs: []*Node{in}}
}

// Fuse appends kernels to a fused stage, returning the extended stage. The
// receiver must be a fused stage.
func (n *Node) Fuse(kernels ...Kernel) *Node {
	return &Node{Kernels: append(append([]Kernel(nil), n.Kernels...), kernels...), Inputs: n.Inputs}
}

// NewExchange builds a barrier stage over the inputs that hands its output
// on as the given number of row bands.
func NewExchange(name string, bands int, run func([]*partition.Frame) (*partition.Frame, error), inputs ...*Node) *Node {
	return &Node{Exchange: &Exchange{Name: name, Bands: bands, Run: run}, Inputs: inputs}
}

// NewShuffle builds a two-phase repartition stage over input, with optional
// whole-frame side inputs consumed by the shuffle's plan phase.
func NewShuffle(sh *Shuffle, input *Node, sides ...*Node) *Node {
	return &Node{Shuffle: sh, Inputs: append([]*Node{input}, sides...)}
}

// Describe renders the stage (without inputs).
func (n *Node) Describe() string {
	switch {
	case n.Source != nil:
		return fmt.Sprintf("SOURCE[%d bands]", n.Source.RowBands())
	case n.Stream != nil:
		names := make([]string, 0, len(n.Stream.Kernels)+1)
		names = append(names, n.Stream.Name)
		for _, k := range n.Stream.Kernels {
			names = append(names, k.Name)
		}
		return "STREAM[" + strings.Join(names, "→") + "]"
	case len(n.Kernels) > 0:
		names := make([]string, len(n.Kernels))
		for i, k := range n.Kernels {
			names[i] = k.Name
		}
		return "FUSED[" + strings.Join(names, "→") + "]"
	case n.Shuffle != nil:
		return "SHUFFLE[" + n.Shuffle.Name + "]"
	case n.Exchange != nil:
		return "EXCHANGE[" + n.Exchange.Name + "]"
	}
	return "EMPTY"
}

// Render pretty-prints the physical plan, one stage per line, inputs
// indented.
func Render(n *Node) string {
	var b strings.Builder
	render(&b, n, 0)
	return b.String()
}

func render(b *strings.Builder, n *Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Describe())
	b.WriteByte('\n')
	for _, in := range n.Inputs {
		render(b, in, depth+1)
	}
}

// Stages counts fused and repartition (shuffle or exchange) stages in the
// plan (shared sub-stages count once).
func Stages(n *Node) (fused, exchanges int) {
	seen := make(map[*Node]bool)
	var walk func(*Node)
	walk = func(n *Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		switch {
		case n.Stream != nil && len(n.Stream.Kernels) > 0:
			fused++
		case len(n.Kernels) > 0:
			fused++
		case n.Shuffle != nil, n.Exchange != nil:
			exchanges++
		}
		for _, in := range n.Inputs {
			walk(in)
		}
	}
	walk(n)
	return fused, exchanges
}

// Stats counts scheduler activity for instrumentation and tests.
type Stats struct {
	// FusedTasks counts per-band tasks scheduled for fused stages.
	FusedTasks atomic.Int64
	// ExchangeTasks counts barrier coordinating tasks scheduled.
	ExchangeTasks atomic.Int64
	// FusedStages and ExchangeStages count stages scheduled.
	FusedStages    atomic.Int64
	ExchangeStages atomic.Int64

	// ShuffleStages counts shuffle stages scheduled. The per-phase task
	// counters below record the streaming lowering: one summary/partition
	// task per input band, one plan task per planned shuffle, and one merge
	// task per OUTPUT band — each merge backs its own band future.
	ShuffleStages         atomic.Int64
	ShuffleSummaryTasks   atomic.Int64
	ShufflePlanTasks      atomic.Int64
	ShufflePartitionTasks atomic.Int64
	ShuffleMergeTasks     atomic.Int64
	// ShuffleFallbacks is always 0: every shuffle, an exchange's consumers
	// included, is wired when the plan is scheduled. The field stays for
	// callers that still report it.
	ShuffleFallbacks atomic.Int64

	// StreamStages counts morsel-driven source stages scheduled;
	// StreamBands counts the bands their output frames were sized to.
	// StreamReleasedBands counts transient input bands a shuffle released
	// after routing them (runs with a PieceStore only).
	StreamStages        atomic.Int64
	StreamBands         atomic.Int64
	StreamReleasedBands atomic.Int64
}

// Scheduler lowers physical plans onto a worker pool as a task DAG. It is
// the only caller of a stage's hooks: kernels, exchange bodies and every
// shuffle phase run from here and nowhere else.
type Scheduler struct {
	pool  *exec.Pool
	group *exec.Group
	memo  map[*Node]*Result

	// Stats is exported for instrumentation (per-scheduler, i.e. per-run).
	Stats Stats

	// Pieces, when set before Run, admits every piece a partitioned shuffle
	// routes, and lets the shuffle release each transient input band once
	// the band is routed.
	Pieces PieceStore

	// OnBandRelease, when set before Run, is called each time a shuffle
	// releases a consumed transient input band. Unlike the counters
	// incremented while Run wires the DAG, band releases happen inside
	// partition tasks that typically outlive Run, so a cumulative-stats
	// owner mirrors them through this hook instead of snapshotting
	// Stats.StreamReleasedBands at schedule time.
	OnBandRelease func()
}

// NewScheduler returns a scheduler for one plan run. Each run has its own
// cancellation group: the first failing task skips the rest of the run.
func NewScheduler(pool *exec.Pool) *Scheduler {
	return &Scheduler{
		pool:  pool,
		group: exec.NewGroup(),
		memo:  make(map[*Node]*Result),
	}
}

// Group exposes the run's cancellation scope.
func (s *Scheduler) Group() *exec.Group { return s.group }

// Result is a scheduled stage's output handle: a deferred frame with one
// future per band, whose band count was fixed when the stage was scheduled.
type Result struct {
	frame *partition.Frame
}

// Deferred reports whether the result still has in-flight work.
func (r *Result) Deferred() bool { return !r.frame.Ready() }

// Frame returns the stage's deferred output frame at once; its bands may
// still be computing, and a task's failure surfaces when they are resolved.
func (r *Result) Frame() (*partition.Frame, error) { return r.frame, nil }

// futures lists the futures of every band, which a task over the whole
// result waits on.
func (r *Result) futures() []*exec.Future {
	deps := make([]*exec.Future, r.frame.RowBands())
	for b := range deps {
		deps[b] = r.frame.BandFuture(b)
	}
	return deps
}

// Run schedules the plan's task DAG and returns the root's handle without
// waiting for any task. Shared sub-stages are scheduled once.
func (s *Scheduler) Run(n *Node) (*Result, error) {
	if res, ok := s.memo[n]; ok {
		return res, nil
	}
	res, err := s.schedule(n)
	if err != nil {
		return nil, err
	}
	s.memo[n] = res
	return res, nil
}

func (s *Scheduler) schedule(n *Node) (*Result, error) {
	switch {
	case n.Source != nil:
		return &Result{frame: n.Source}, nil

	case n.Stream != nil:
		return s.scheduleStream(n)

	case len(n.Kernels) > 0:
		in, err := s.Run(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		s.Stats.FusedStages.Add(1)
		return s.wireFused(in.frame, n.Kernels)

	case n.Shuffle != nil:
		sh := n.Shuffle
		if err := sh.validate(len(n.Inputs) - 1); err != nil {
			return nil, err
		}
		in, err := s.Run(n.Inputs[0])
		if err != nil {
			return nil, err
		}
		sides := make([]*Result, len(n.Inputs)-1)
		for i, child := range n.Inputs[1:] {
			if sides[i], err = s.Run(child); err != nil {
				return nil, err
			}
		}
		s.Stats.ShuffleStages.Add(1)
		return s.wireShuffle(sh, in.frame, sides)

	case n.Exchange != nil:
		ex := n.Exchange
		if ex.Bands < 1 {
			return nil, fmt.Errorf("physical: exchange %s hands on %d bands, want at least 1", ex.Name, ex.Bands)
		}
		inputs := make([]*Result, len(n.Inputs))
		var deps []*exec.Future
		for i, child := range n.Inputs {
			r, err := s.Run(child)
			if err != nil {
				return nil, err
			}
			inputs[i] = r
			deps = append(deps, r.futures()...)
		}
		s.Stats.ExchangeStages.Add(1)
		s.Stats.ExchangeTasks.Add(1)
		return s.wireExchange(ex, inputs, deps)
	}
	return nil, fmt.Errorf("physical: empty stage")
}

// wireExchange submits the exchange's one task and hands its output on as
// ex.Bands promises, one per row band, which the task resolves: a consumer's
// per-band tasks chain on them like on any other stage's bands. A skipped
// or failed exchange settles every promise with its error, so no waiter
// hangs.
func (s *Scheduler) wireExchange(ex *Exchange, inputs []*Result, deps []*exec.Future) (*Result, error) {
	futs := make([]*exec.Future, ex.Bands)
	resolve := make([]func(any, error), ex.Bands)
	for r := range futs {
		futs[r], resolve[r] = exec.NewPromise()
	}
	task := s.pool.SubmitIn(s.group, func() (any, error) {
		out, err := ex.Run(resultFrames(inputs))
		if err != nil {
			return nil, fmt.Errorf("physical: exchange %s: %w", ex.Name, describe(ex.Desc, err))
		}
		bands, err := ex.bandsOf(out)
		if err != nil {
			return nil, err
		}
		for r, band := range bands {
			resolve[r](band, nil)
		}
		return nil, nil
	}, deps...)
	go func() {
		if _, err := task.Wait(); err != nil {
			for _, res := range resolve {
				res(nil, err) // a band the task resolved keeps its value
			}
		}
	}()
	return deferred(futs), nil
}

// bandsOf cuts the exchange's output into the bands it hands on: its row
// bands, then empty bands up to Bands. An empty band keeps band 0's columns
// and declared domains, so gathering it changes nothing, and shares one
// fresh zero-row vector per storage domain across its columns
// (core.DataFrame.EmptyLike), so it costs O(1) vectors and pins none of
// band 0's storage.
func (ex *Exchange) bandsOf(out *partition.Frame) ([]*core.DataFrame, error) {
	if out.RowBands() > ex.Bands {
		return nil, fmt.Errorf("physical: exchange %s returned %d bands, want at most %d", ex.Name, out.RowBands(), ex.Bands)
	}
	bands := make([]*core.DataFrame, ex.Bands)
	for r := range bands {
		if r >= out.RowBands() {
			bands[r] = bands[0].EmptyLike()
			continue
		}
		band, err := out.RowBand(r)
		if err != nil {
			return nil, err
		}
		bands[r] = band
	}
	return bands, nil
}

// deferred wraps a stage's band futures as its result.
func deferred(futs []*exec.Future) *Result {
	return &Result{frame: partition.Deferred(futs)}
}

// resultFrames lists each result's frame.
func resultFrames(results []*Result) []*partition.Frame {
	frames := make([]*partition.Frame, len(results))
	for i, r := range results {
		frames[i] = r.frame
	}
	return frames
}

// describe puts the logical operator's description in front of a hook's
// failure (the scheduler adds the stage's short name and phase around it).
func describe(desc string, err error) error {
	if desc == "" {
		return err
	}
	return fmt.Errorf("%s: %w", desc, err)
}

// RunKernels applies a fused chain to one band. Stage exit is the one
// coalescing point for view-producing kernels (zero-copy selection chains):
// the result is materialized once here instead of per kernel. Cluster
// workers run their shipped chains through it too.
func RunKernels(kernels []Kernel, df *core.DataFrame) (*core.DataFrame, error) {
	var err error
	for _, k := range kernels {
		df, err = k.Fn(df)
		if err != nil {
			return nil, fmt.Errorf("physical: kernel %s: %w", k.Name, describe(k.Desc, err))
		}
	}
	return df.Compact(), nil
}

// wireFused chains the kernels over the input's bands: one task per row
// band running the whole chain over it, chained on the band's future — no
// barrier between operators or bands.
func (s *Scheduler) wireFused(f *partition.Frame, kernels []Kernel) (*Result, error) {
	s.Stats.FusedTasks.Add(int64(f.RowBands()))
	futs := make([]*exec.Future, f.RowBands())
	for r := range futs {
		futs[r] = s.pool.SubmitIn(s.group, func() (any, error) {
			band, err := f.RowBand(r)
			if err != nil {
				return nil, err
			}
			return RunKernels(kernels, band)
		}, f.BandFuture(r))
	}
	return deferred(futs), nil
}

// validate rejects a malformed shuffle before anything is scheduled.
func (sh *Shuffle) validate(sides int) error {
	switch {
	case sh.Merge == nil:
		return fmt.Errorf("physical: shuffle %s has no merge", sh.Name)
	case sides > 0 && sh.Plan == nil:
		return fmt.Errorf("physical: shuffle %s has side inputs but no plan", sh.Name)
	case sh.Partition != nil && sh.Buckets < 1:
		return fmt.Errorf("physical: shuffle %s needs at least one bucket", sh.Name)
	}
	return nil
}

// wireShuffle lowers a shuffle onto the task DAG:
//
//	summaries[r] ──┐
//	input band r ──┼→ plan ──→ partition[r] ──→ merge[b] (one per OUTPUT band)
//	side inputs  ──┘
//
// Every output band's merge is its own task and its own band future, so
// the result is a deferred frame of Buckets bands: downstream fused stages chain
// per band on the merge that feeds them — the no-barrier fast path —
// instead of waiting for the whole repartition like an exchange.
func (s *Scheduler) wireShuffle(sh *Shuffle, f *partition.Frame, sides []*Result) (*Result, error) {
	rb := f.RowBands()
	submit := func(fn func() (any, error), deps ...*exec.Future) *exec.Future {
		return s.pool.SubmitIn(s.group, fn, deps...)
	}

	var sums []*exec.Future
	if sh.Summarize != nil && sh.Plan != nil {
		sums = make([]*exec.Future, rb)
		s.Stats.ShuffleSummaryTasks.Add(int64(rb))
		for r := range sums {
			sums[r] = submit(func() (any, error) {
				band, err := f.RowBand(r)
				if err != nil {
					return nil, err
				}
				v, err := sh.Summarize(r, band)
				if err != nil {
					return nil, describe(sh.Desc, err)
				}
				return v, nil
			}, f.BandFuture(r))
		}
	}

	var planFut *exec.Future
	if sh.Plan != nil {
		planDeps := append([]*exec.Future(nil), sums...)
		for _, side := range sides {
			planDeps = append(planDeps, side.futures()...)
		}
		s.Stats.ShufflePlanTasks.Add(1)
		planFut = submit(func() (any, error) {
			bandSums := make([]any, rb)
			for r, sf := range sums {
				v, err := sf.Wait()
				if err != nil {
					return nil, err
				}
				bandSums[r] = v
			}
			out, err := sh.Plan(bandSums, resultFrames(sides))
			if err != nil {
				return nil, fmt.Errorf("physical: shuffle %s plan: %w", sh.Name, describe(sh.Desc, err))
			}
			return out, nil
		}, planDeps...)
	}
	planVal := func() (any, error) {
		if planFut == nil {
			return nil, nil
		}
		return planFut.Wait()
	}
	withPlan := func(deps []*exec.Future) []*exec.Future {
		if planFut != nil {
			deps = append(deps, planFut)
		}
		return deps
	}

	var mergeFuts []*exec.Future
	if sh.Partition == nil {
		// Anchored: output band b depends on the input bands its reach
		// names plus the global plan, and on no later band under a prefix
		// reach, so band b's merge can land while later bands are still
		// computing their inputs. Bands are never released here: a band
		// within another band's reach may be read after its own merge.
		mergeFuts = make([]*exec.Future, rb)
		s.Stats.ShuffleMergeTasks.Add(int64(rb))
		for b := range mergeFuts {
			lo, hi := sh.Reach.bands(b, rb)
			var deps []*exec.Future
			var pieces []Piece
			for r := lo; r < hi; r++ {
				deps = append(deps, f.BandFuture(r))
				pieces = append(pieces, Piece{take: func() (*core.DataFrame, error) { return f.RowBand(r) }})
			}
			mergeFuts[b] = submit(func() (any, error) {
				plan, err := planVal()
				if err != nil {
					return nil, err
				}
				return s.runMerge(sh, b, pieces, plan)
			}, withPlan(deps)...)
		}
	} else {
		// A run with a piece store releases each transient band once it is
		// routed: the store owns what outlives the partition call.
		release := s.Pieces != nil && f.Transient()
		if release && sh.Plan == nil {
			// A band's release does not wait on the all-band plan, so the
			// stream producer may hold its parse-ahead window against
			// release instead of mere resolution — backpressure that spans
			// the whole route-and-spill path, not just the parse. A shuffle
			// that partitions from the global plan (SORT's range bounds)
			// cannot release any band before every band is summarized, and a
			// producer waiting on release would deadlock it: a streamed SORT
			// is bounded by band resolution only.
			f.MarkReleasing()
		}
		nb := sh.Buckets
		parts := make([]*exec.Future, rb)
		s.Stats.ShufflePartitionTasks.Add(int64(rb))
		for r := range parts {
			parts[r] = submit(func() (any, error) {
				band, err := f.RowBand(r)
				if err != nil {
					return nil, err
				}
				plan, err := planVal()
				if err != nil {
					return nil, err
				}
				pieces, err := s.runPartition(sh, r, band, plan)
				if err == nil && release {
					// Any summary of this band already ran: the plan task, a
					// dependency of this partition task, waits on them all.
					f.ReleaseBand(r)
					s.Stats.StreamReleasedBands.Add(1)
					if s.OnBandRelease != nil {
						s.OnBandRelease()
					}
				}
				return pieces, err
			}, withPlan([]*exec.Future{f.BandFuture(r)})...)
		}
		mergeFuts = make([]*exec.Future, nb)
		s.Stats.ShuffleMergeTasks.Add(int64(nb))
		for b := range mergeFuts {
			mergeFuts[b] = submit(func() (any, error) {
				pieces := make([]Piece, rb)
				for r, pf := range parts {
					v, err := pf.Wait()
					if err != nil {
						return nil, err
					}
					pieces[r] = v.([]Piece)[b]
				}
				plan, err := planVal()
				if err != nil {
					return nil, err
				}
				return s.runMerge(sh, b, pieces, plan)
			}, parts...)
		}
	}
	return deferred(mergeFuts), nil
}

// runPartition routes one band: the shuffle's partition hook, piece-count
// validation, and admission of every piece through the run's piece store —
// all under the partition phase's error context.
func (s *Scheduler) runPartition(sh *Shuffle, r int, band *core.DataFrame, plan any) ([]Piece, error) {
	wrap := func(err error) error {
		return fmt.Errorf("physical: shuffle %s partition band %d: %w", sh.Name, r, describe(sh.Desc, err))
	}
	frames, err := sh.Partition(r, band, plan)
	if err != nil {
		return nil, wrap(err)
	}
	if len(frames) != sh.Buckets {
		return nil, fmt.Errorf("physical: shuffle %s partition band %d returned %d pieces, want %d", sh.Name, r, len(frames), sh.Buckets)
	}
	if s.Pieces == nil {
		return PiecesOf(frames...), nil
	}
	pieces := make([]Piece, len(frames))
	for b, df := range frames {
		if pieces[b].take, err = s.Pieces.Admit(df); err != nil {
			return nil, wrap(err)
		}
	}
	return pieces, nil
}

// runMerge invokes the shuffle's merge hook with error context.
func (s *Scheduler) runMerge(sh *Shuffle, b int, pieces []Piece, plan any) (*core.DataFrame, error) {
	out, err := sh.Merge(b, pieces, plan)
	if err != nil {
		return nil, fmt.Errorf("physical: shuffle %s merge band %d: %w", sh.Name, b, describe(sh.Desc, err))
	}
	return out, nil
}

// Gather schedules a final task that resolves the root result into one
// dataframe, returning its future without blocking. This is the handle the
// opportunistic session regime hands back to users.
func (s *Scheduler) Gather(r *Result) *exec.Future {
	return s.pool.SubmitIn(s.group, func() (any, error) { return r.frame.ToFrame() }, r.futures()...)
}
