// Package physical is the physical-plan layer between the dataframe algebra
// and the task-parallel execution engine: logical plans are *compiled* into
// a DAG of physical stages, and the scheduler lowers those stages onto
// per-block tasks on an exec.Pool.
//
// Two stage shapes exist, mirroring the two communication regimes of the
// MODIN architecture (Petersohn et al., Section 3):
//
//   - Fused stages chain embarrassingly-parallel per-band kernels
//     (selection, projection, map, rename, ...) into ONE task per band: a
//     filter→map chain over an 8-band frame schedules 8 tasks total, with
//     no inter-operator barrier — band 3's map may run while band 7's
//     filter is still queued.
//
//   - Shuffle stages are the streaming repartition points (groupby, sort,
//     join): a two-phase partition→route→merge lowering where each OUTPUT
//     band is its own task — downstream fused chains start as soon as the
//     band that feeds them lands, not when the whole shuffle does.
//
//   - Exchange stages are the gather barriers kept for shape-opaque
//     operators (transpose, window, union, ...): they depend on every input
//     block and run as a single coordinating task that may itself fan out.
//
// The scheduler returns deferred partition.Frames (future blocks) without
// waiting, so callers — the opportunistic session regime in particular —
// hold unresolved handles and only block at gather/render time. A failing
// task cancels the plan's exec.Group, skipping the query's remaining tasks.
package physical

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/partition"
)

// Kernel is one embarrassingly-parallel operator lowered into a fused
// stage: a pure per-band (or per-block) dataframe transform.
type Kernel struct {
	// Name labels the kernel in plan renderings ("selection", "map", ...).
	Name string
	// Desc is the logical operator the kernel implements (its Describe()
	// text); the scheduler puts it in front of the kernel's failures, so a
	// deep chain's error names the operator that failed.
	Desc string
	// Elementwise marks kernels that are partitioning-agnostic (pure
	// cell-level transforms): they may run per block under any scheme. A
	// non-elementwise kernel needs full-width row bands.
	Elementwise bool
	// Fn transforms one band (or block).
	Fn func(*core.DataFrame) (*core.DataFrame, error)
}

// Exchange is a repartition point: a stage that must observe all of its
// inputs' blocks before producing output. Run receives the materialized
// input frames in input order.
type Exchange struct {
	// Name labels the exchange in plan renderings ("groupby", "sort", ...).
	Name string
	// Desc is the logical operator's description, as on Kernel.
	Desc string
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
// An optional summarize→plan pre-phase computes shared routing state from
// small per-band summaries (sampled range bounds for SORT, the global
// first-appearance key order for GROUPBY, band row counts for relabeling);
// side inputs (e.g. a join's build side) are resolved whole and handed to
// Plan.
type Shuffle struct {
	// Name labels the stage in plan renderings ("groupby", "sort", ...).
	Name string
	// Desc is the logical operator's description, as on Kernel; it prefixes
	// the failures of every phase hook.
	Desc string
	// Buckets is the number of output bands when Partition is set. When
	// Partition is nil the shuffle is *anchored*: output band b is produced
	// from input band b alone (no rows cross bands) and Buckets is ignored.
	Buckets int
	// Summarize (optional) extracts a small per-band summary for Plan.
	Summarize func(band int, df *core.DataFrame) (any, error)
	// Plan (optional) folds the band summaries — indexed by input band —
	// and the materialized side inputs into routing state passed to every
	// Partition and Merge call. Required when the stage has side inputs.
	Plan func(summaries []any, sides []*partition.Frame) (any, error)
	// PrefixPlan (optional; anchored shuffles only, mutually exclusive
	// with Plan, requires Summarize) computes band b's routing state from
	// the summaries of bands [0, b) ONLY — prefix state such as label
	// offsets. Band b's merge then depends on earlier bands but never on
	// later ones, so prefix-planned passes keep streaming band by band
	// instead of barriering on the slowest band.
	PrefixPlan func(prefix []any) (any, error)
	// BandRouting (partitioned shuffles only, requires Summarize, Plan and
	// Partition; mutually exclusive with PrefixPlan) routes each band from
	// its OWN summary instead of the global plan: band r's Partition call
	// receives summaries[r] as its plan argument and depends only on band r
	// plus its summary — NOT on the all-band plan fold. The global Plan
	// still runs, but gates only the merges. This is the keyed analogue of
	// PrefixPlan: routing must then be a pure function of the band itself
	// (e.g. stable key hashes), with Plan repairing any global ordering at
	// merge time. It removes the one barrier that made streamed inputs
	// accumulate every routed-but-unplanned band.
	BandRouting bool
	// Partition splits input band `band` into exactly Buckets pieces;
	// piece b is routed to output band b. Nil marks an anchored shuffle.
	// When the run has a PieceStore the band may be released the moment the
	// call returns, so a piece may be a view into the band only because the
	// store detaches or writes out what it admits.
	Partition func(band int, df *core.DataFrame, plan any) ([]*core.DataFrame, error)
	// Merge combines the pieces routed to output band `bucket` (one per
	// input band, in band order) into that band's block. Anchored shuffles
	// receive the input band itself as the only piece.
	Merge func(bucket int, pieces []Piece, plan any) (*core.DataFrame, error)
}

// Piece is one routed frame on its way from a partition task to the merge
// that consumes it: in memory, or held by the run's PieceStore.
type Piece struct {
	df   *core.DataFrame
	take func() (*core.DataFrame, error) // set once the run's store admitted the piece
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

// Stored reports whether a PieceStore holds the piece; Frame on a piece
// that is not stored is free and repeatable.
func (p Piece) Stored() bool { return p.take != nil }

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

// NewExchange builds a barrier stage over the inputs.
func NewExchange(name string, run func([]*partition.Frame) (*partition.Frame, error), inputs ...*Node) *Node {
	return &Node{Exchange: &Exchange{Name: name, Run: run}, Inputs: inputs}
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
		return fmt.Sprintf("SOURCE[%dx%d bands]", n.Source.RowBands(), n.Source.ColBands())
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
	// task per OUTPUT band — each merge backs its own block future.
	ShuffleStages         atomic.Int64
	ShuffleSummaryTasks   atomic.Int64
	ShufflePlanTasks      atomic.Int64
	ShufflePartitionTasks atomic.Int64
	ShuffleMergeTasks     atomic.Int64
	// ShuffleFallbacks counts shuffles over shape-opaque inputs (downstream
	// of an exchange). They are wired late: the same per-band tasks, counted
	// above once the input frame lands, behind one output future — a
	// barrier to the consumer, like an exchange.
	ShuffleFallbacks atomic.Int64

	// StreamStages counts morsel-driven source stages scheduled;
	// StreamBands counts the bands their output grids were sized to.
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

// Result is a scheduled stage's output handle. Stages whose output grid
// shape is known at schedule time (sources, fused chains and shuffles over
// them) carry a deferred frame with one future per block; an exchange, whose
// shape depends on the data, and every stage downstream of one carry a
// single future resolving to the whole frame.
type Result struct {
	frame *partition.Frame // non-nil when the block grid shape is known
	fut   *exec.Future     // otherwise: resolves to *partition.Frame
}

// Deferred reports whether the result still has in-flight work.
func (r *Result) Deferred() bool {
	if r.frame != nil {
		return !r.frame.Ready()
	}
	return !r.fut.Ready()
}

// Frame waits for the stage's output frame. For shape-known results this
// returns immediately with the deferred frame (its blocks may still be
// computing); for exchange results it blocks until the exchange ran.
func (r *Result) Frame() (*partition.Frame, error) {
	if r.frame != nil {
		return r.frame, nil
	}
	v, err := r.fut.Wait()
	if err != nil {
		return nil, err
	}
	return v.(*partition.Frame), nil
}

// blockDeps lists the futures downstream tasks must wait on.
func (r *Result) blockDeps() []*exec.Future {
	if r.frame == nil {
		return []*exec.Future{r.fut}
	}
	var deps []*exec.Future
	for br := 0; br < r.frame.RowBands(); br++ {
		deps = append(deps, bandDeps(r.frame, br)...)
	}
	return deps
}

// bandDeps lists the block futures of row band r.
func bandDeps(f *partition.Frame, r int) []*exec.Future {
	deps := make([]*exec.Future, f.ColBands())
	for c := range deps {
		deps[c] = f.BlockFuture(r, c)
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
		return s.wire(in, func(f *partition.Frame) (*partition.Frame, error) {
			return s.wireFused(f, n.Kernels)
		})

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
		if in.frame == nil {
			s.Stats.ShuffleFallbacks.Add(1)
		}
		return s.wire(in, func(f *partition.Frame) (*partition.Frame, error) {
			return s.wireShuffle(sh, f, sides)
		})

	case n.Exchange != nil:
		inputs := make([]*Result, len(n.Inputs))
		var deps []*exec.Future
		for i, child := range n.Inputs {
			r, err := s.Run(child)
			if err != nil {
				return nil, err
			}
			inputs[i] = r
			deps = append(deps, r.blockDeps()...)
		}
		s.Stats.ExchangeStages.Add(1)
		s.Stats.ExchangeTasks.Add(1)
		ex := n.Exchange
		fut := s.pool.SubmitIn(s.group, func() (any, error) {
			frames, err := resultFrames(inputs)
			if err != nil {
				return nil, err
			}
			out, err := ex.Run(frames)
			if err != nil {
				return nil, fmt.Errorf("physical: exchange %s: %w", ex.Name, describe(ex.Desc, err))
			}
			return out, nil
		}, deps...)
		return &Result{fut: fut}, nil
	}
	return nil, fmt.Errorf("physical: empty stage")
}

// resultFrames resolves each result's frame; called from tasks that depend
// on every block of every result, so nothing here waits.
func resultFrames(results []*Result) ([]*partition.Frame, error) {
	frames := make([]*partition.Frame, len(results))
	for i, r := range results {
		f, err := r.Frame()
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	return frames, nil
}

// describe puts the logical operator's description in front of a hook's
// failure (the scheduler adds the stage's short name and phase around it).
func describe(desc string, err error) error {
	if desc == "" {
		return err
	}
	return fmt.Errorf("%s: %w", desc, err)
}

// wire lowers a stage onto its input's block grid. When the grid is known
// the per-band tasks are wired now and the result is shape-known. When it
// is not — the input is downstream of an exchange — the SAME tasks are
// wired late, by a watcher goroutine, once the input frame has landed; the
// stage's one future resolves from that watcher when the blocks have landed,
// so the stage is a barrier to its consumer, and no pool worker ever waits
// on an unfinished task (exec.SubmitIn's invariant; a one-worker pool hangs
// the moment it is broken).
func (s *Scheduler) wire(in *Result, lower func(*partition.Frame) (*partition.Frame, error)) (*Result, error) {
	if in.frame != nil {
		out, err := lower(in.frame)
		if err != nil {
			return nil, err
		}
		return &Result{frame: out}, nil
	}
	fut, resolve := exec.NewPromise()
	// The watcher ends when the input and then the stage's blocks have
	// resolved, or the run is cancelled — every future of a run resolves.
	go func() {
		select {
		case <-in.fut.Done():
		case <-s.group.Done():
			resolve(nil, s.group.Err())
			return
		}
		f, err := in.Frame()
		if err != nil {
			resolve(nil, err)
			return
		}
		out, err := lower(f)
		if err != nil {
			s.group.Cancel(err)
			resolve(nil, err)
			return
		}
		for _, blk := range (&Result{frame: out}).blockDeps() {
			select {
			case <-blk.Done():
			case <-s.group.Done():
			}
		}
		// A task of the run's group fails only by cancelling the group.
		if err := s.group.Err(); err != nil {
			resolve(nil, err)
			return
		}
		resolve(out, nil)
	}()
	return &Result{fut: fut}, nil
}

// runKernels applies a fused chain to one band (or block). Stage exit is
// the one coalescing point for view-producing kernels (zero-copy selection
// chains): the result is materialized once here instead of per kernel.
func runKernels(kernels []Kernel, df *core.DataFrame) (*core.DataFrame, error) {
	var err error
	for _, k := range kernels {
		df, err = k.Fn(df)
		if err != nil {
			return nil, fmt.Errorf("physical: kernel %s: %w", k.Name, describe(k.Desc, err))
		}
	}
	return df.Compact(), nil
}

// wireFused chains the kernels over the input's grid: one task per block
// running the whole chain, chained on the block's future — no barrier
// between operators or bands. Row kernels over a block grid (more than one
// column band) instead get one task per row band, over the band's blocks
// stacked to full width.
func (s *Scheduler) wireFused(f *partition.Frame, kernels []Kernel) (*partition.Frame, error) {
	chain := func(df *core.DataFrame) (*core.DataFrame, error) { return runKernels(kernels, df) }
	rowKernel := slices.ContainsFunc(kernels, func(k Kernel) bool { return !k.Elementwise })
	if !rowKernel || f.ColBands() == 1 {
		s.Stats.FusedTasks.Add(int64(f.RowBands() * f.ColBands()))
		return f.MapBlocksAsync(s.pool, s.group, chain), nil
	}
	s.Stats.FusedTasks.Add(int64(f.RowBands()))
	grid := make([][]*exec.Future, f.RowBands())
	for r := range grid {
		grid[r] = []*exec.Future{s.pool.SubmitIn(s.group, func() (any, error) {
			band, err := f.RowBand(r)
			if err != nil {
				return nil, err
			}
			return chain(band)
		}, bandDeps(f, r)...)}
	}
	return partition.Deferred(grid)
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
	case sh.PrefixPlan != nil && (sh.Plan != nil || sh.Partition != nil || sh.Summarize == nil):
		return fmt.Errorf("physical: shuffle %s prefix plan requires an anchored shuffle with summaries and no global plan", sh.Name)
	case sh.BandRouting && (sh.Summarize == nil || sh.Plan == nil || sh.Partition == nil || sh.PrefixPlan != nil):
		return fmt.Errorf("physical: shuffle %s band routing requires a partitioned shuffle with summaries and a global plan", sh.Name)
	}
	return nil
}

// wireShuffle lowers a shuffle onto the task DAG:
//
//	summaries[r] ──┐
//	input band r ──┼→ plan ──→ partition[r] ──→ merge[b] (one per OUTPUT band)
//	side inputs  ──┘
//
// Every output band's merge is its own task and its own block future, so
// the result is a deferred frame (Buckets×1): downstream fused stages chain
// per band on the merge that feeds them — the no-barrier fast path —
// instead of waiting for the whole repartition like an exchange.
func (s *Scheduler) wireShuffle(sh *Shuffle, f *partition.Frame, sides []*Result) (*partition.Frame, error) {
	rb := f.RowBands()
	submit := func(fn func() (any, error), deps ...*exec.Future) *exec.Future {
		return s.pool.SubmitIn(s.group, fn, deps...)
	}

	var sums []*exec.Future
	if sh.Summarize != nil && (sh.Plan != nil || sh.PrefixPlan != nil) {
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
			}, bandDeps(f, r)...)
		}
	}
	// summaries reads the first n band summaries; its callers depend on them.
	summaries := func(n int) ([]any, error) {
		out := make([]any, n)
		if sums == nil {
			return out, nil
		}
		for r := range out {
			v, err := sums[r].Wait()
			if err != nil {
				return nil, err
			}
			out[r] = v
		}
		return out, nil
	}

	var planFut *exec.Future
	if sh.Plan != nil {
		planDeps := append([]*exec.Future(nil), sums...)
		for _, side := range sides {
			planDeps = append(planDeps, side.blockDeps()...)
		}
		s.Stats.ShufflePlanTasks.Add(1)
		planFut = submit(func() (any, error) {
			bandSums, err := summaries(rb)
			if err != nil {
				return nil, err
			}
			sideFrames, err := resultFrames(sides)
			if err != nil {
				return nil, err
			}
			out, err := sh.Plan(bandSums, sideFrames)
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
		// Anchored: output band b depends only on input band b plus its
		// routing state — the global plan, or (prefix plan) the summaries of
		// EARLIER bands only, so the pass streams band by band and band 0
		// needs nothing but itself. No rows cross bands, so band b's merge
		// can land while other bands are still computing their inputs. Bands
		// are never released here: band b's summary may feed later bands'
		// prefix plans and may not have run yet.
		mergeFuts = make([]*exec.Future, rb)
		s.Stats.ShuffleMergeTasks.Add(int64(rb))
		for b := range mergeFuts {
			deps, bandPlan := withPlan(bandDeps(f, b)), planVal
			if sh.PrefixPlan != nil {
				deps = append(deps, sums[:b]...)
				bandPlan = func() (any, error) {
					prefix, err := summaries(b)
					if err != nil {
						return nil, err
					}
					plan, err := sh.PrefixPlan(prefix)
					if err != nil {
						return nil, fmt.Errorf("physical: shuffle %s prefix plan band %d: %w", sh.Name, b, describe(sh.Desc, err))
					}
					return plan, nil
				}
			}
			mergeFuts[b] = submit(func() (any, error) {
				band, err := f.RowBand(b)
				if err != nil {
					return nil, err
				}
				plan, err := bandPlan()
				if err != nil {
					return nil, err
				}
				return s.runMerge(sh, b, PiecesOf(band), plan)
			}, deps...)
		}
	} else {
		// A run with a piece store releases each transient band once it is
		// routed: the store owns what outlives the partition call.
		release := s.Pieces != nil && f.Transient()
		if release && (sh.Plan == nil || sh.BandRouting) {
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
			partDeps, partPlan := withPlan(bandDeps(f, r)), planVal
			if sh.BandRouting {
				// Band routing: band r partitions from its OWN summary the
				// moment both exist — no dependency on the global plan fold,
				// so a streamed band routes (and releases) as soon as it
				// parses instead of accumulating behind the slowest band.
				partDeps, partPlan = append(bandDeps(f, r), sums[r]), sums[r].Wait
			}
			parts[r] = submit(func() (any, error) {
				band, err := f.RowBand(r)
				if err != nil {
					return nil, err
				}
				plan, err := partPlan()
				if err != nil {
					return nil, err
				}
				pieces, err := s.runPartition(sh, r, band, plan)
				if err == nil && release {
					// This band's summary already ran: it is a dependency of
					// this partition task, either directly (band routing) or
					// through the plan task (which waits on all summaries).
					f.ReleaseBand(r)
					s.Stats.StreamReleasedBands.Add(1)
					if s.OnBandRelease != nil {
						s.OnBandRelease()
					}
				}
				return pieces, err
			}, partDeps...)
		}
		mergeFuts = make([]*exec.Future, nb)
		s.Stats.ShuffleMergeTasks.Add(int64(nb))
		// Under band routing the partition tasks no longer imply the plan,
		// so the merges must gate on it explicitly.
		mergeDeps := withPlan(parts)
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
			}, mergeDeps...)
		}
	}
	grid := make([][]*exec.Future, len(mergeFuts))
	for b, mf := range mergeFuts {
		grid[b] = []*exec.Future{mf}
	}
	return partition.Deferred(grid)
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
	return s.pool.SubmitIn(s.group, func() (any, error) {
		f, err := r.Frame()
		if err != nil {
			return nil, err
		}
		return f.ToFrame()
	}, r.blockDeps()...)
}
