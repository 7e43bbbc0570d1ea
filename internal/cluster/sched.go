package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/modin"
	"repro/internal/physical"
	"repro/internal/types"
)

// Scheduler is the coordinator-side engine: it implements the same
// exec-facing surface as the in-process MODIN engine (algebra.Engine plus
// the async/spill/explain extensions the df layer probes), so df code
// compiles once and runs unchanged on either backend. Distributable plans
// ship to the workers; everything else — and every distributed run that
// fails — executes on the embedded local engine, which keeps results (and
// errors) cell-identical to a local run by construction.
type Scheduler struct {
	local      *modin.Engine
	rpcTimeout time.Duration
	hbEvery    time.Duration
	hbStop     chan struct{} // closed by Close; never reassigned
	closeOnce  sync.Once
	qseq       atomic.Int64

	mu      sync.Mutex
	workers []*workerRef

	stats Stats // guarded by mu

	// OnPhase, when set, is called at each attempt's phase boundaries
	// ("bands", "partitioned", "merged") — the deterministic hook
	// fault-injection tests use to kill a worker mid-query.
	OnPhase func(phase string)
}

// Stats reports cumulative scheduler counters.
type Stats struct {
	// Distributed counts queries answered by the workers.
	Distributed int64
	// Fallback counts queries outside the shippable subset (or with no
	// live workers) that ran on the local engine directly.
	Fallback int64
	// FallbackReasons breaks Fallback down by the disqualifying operator
	// ("join", "window", "opaque closure", "double-shuffle", ...), so a
	// cluster deployment can see WHY plans stayed local, not just how many.
	FallbackReasons map[string]int64
	// LocalReruns counts distributed runs that failed past the retry
	// budget, or with an application error, and were re-run locally.
	LocalReruns int64
	// ResubmittedBands counts band lineages re-submitted after a worker
	// loss: the bands the lost worker owned in the failed attempt.
	ResubmittedBands int64
	// DeadWorkers counts workers declared lost.
	DeadWorkers int64
}

// ClusterStats returns a snapshot of the scheduler's counters.
func (s *Scheduler) ClusterStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.FallbackReasons = maps.Clone(st.FallbackReasons)
	return st
}

// count updates the scheduler's counters under its mutex.
func (s *Scheduler) count(f func(st *Stats)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(&s.stats)
}

// markDead declares w lost, counting each worker once.
func (s *Scheduler) markDead(w *workerRef) {
	if !w.dead.Swap(true) {
		s.count(func(st *Stats) { st.DeadWorkers++ })
	}
}

// workerRef is the coordinator's handle on one worker: its address, a lazy
// serial connection, and a liveness flag.
type workerRef struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	dead atomic.Bool
}

// call performs one RPC on the worker's serial connection, dialing lazily.
// Transport failures drop the connection and return the raw error; the run
// layer maps those to worker failures.
func (w *workerRef) call(timeout time.Duration, kind byte, req, resp any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.conn == nil {
		c, err := net.Dial("tcp", w.addr)
		if err != nil {
			return err
		}
		w.conn = c
	}
	err := call(w.conn, timeout, kind, req, resp)
	if err != nil {
		if _, app := err.(*remoteError); !app {
			w.conn.Close()
			w.conn = nil
		}
	}
	return err
}

func (w *workerRef) close() {
	w.mu.Lock()
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
	w.mu.Unlock()
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// retryBudget bounds the attempts re-run on survivors per query.
const retryBudget = 2

// WithRPCTimeout bounds each worker RPC (default 120s — shuffle merges over
// big buckets are one RPC).
func WithRPCTimeout(d time.Duration) Option { return func(s *Scheduler) { s.rpcTimeout = d } }

// WithHeartbeat sets the liveness probe interval (default 2s; 0 disables).
func WithHeartbeat(d time.Duration) Option { return func(s *Scheduler) { s.hbEvery = d } }

// WithLocalEngine sets the embedded fallback engine.
func WithLocalEngine(e *modin.Engine) Option { return func(s *Scheduler) { s.local = e } }

// Local returns the degenerate backend: a Scheduler with no workers, whose
// every query runs on the in-process engine. It exists so call sites can
// hold one engine type regardless of deployment.
func Local(opts ...Option) *Scheduler { return newScheduler(nil, opts) }

// Connect returns a Scheduler coordinating the workers at addrs, probing
// each once; at least one must answer.
func Connect(addrs []string, opts ...Option) (*Scheduler, error) {
	s := newScheduler(addrs, opts)
	live := 0
	for _, w := range s.workers {
		if err := w.call(5*time.Second, mPing, &emptyResp{OK: true}, &emptyResp{}); err != nil {
			s.markDead(w)
		} else {
			live++
		}
	}
	if len(addrs) > 0 && live == 0 {
		s.Close()
		return nil, fmt.Errorf("cluster: no worker reachable among %v", addrs)
	}
	return s, nil
}

// StartInProcess starts n workers inside this process and a Scheduler
// connected to them — the single-binary deployment (and the test harness).
func StartInProcess(n int, opts ...Option) (*Scheduler, []*Worker, error) {
	workers := make([]*Worker, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			for _, prev := range workers {
				prev.Close()
			}
			return nil, nil, err
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
	}
	s, err := Connect(addrs, opts...)
	if err != nil {
		for _, w := range workers {
			w.Close()
		}
		return nil, nil, err
	}
	return s, workers, nil
}

func newScheduler(addrs []string, opts []Option) *Scheduler {
	s := &Scheduler{
		rpcTimeout: 120 * time.Second,
		hbEvery:    2 * time.Second,
		hbStop:     make(chan struct{}),
	}
	for _, addr := range addrs {
		s.workers = append(s.workers, &workerRef{addr: addr})
	}
	for _, o := range opts {
		o(s)
	}
	if s.local == nil {
		s.local = modin.New()
	}
	if len(s.workers) > 0 && s.hbEvery > 0 {
		go s.heartbeat(s.hbStop)
	}
	return s
}

// Close stops the heartbeat and drops worker connections (the workers
// themselves keep running). It is idempotent.
func (s *Scheduler) Close() error {
	s.closeOnce.Do(func() { close(s.hbStop) })
	for _, w := range s.workers {
		w.close()
	}
	return nil
}

// heartbeat probes each live worker on a fresh short-lived connection —
// independent of the serial RPC conn, so a long merge doesn't read as
// death — and declares a worker dead after two consecutive failures.
func (s *Scheduler) heartbeat(stop <-chan struct{}) {
	misses := make(map[string]int)
	t := time.NewTicker(s.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		for _, w := range s.workers {
			if w.dead.Load() {
				continue
			}
			if pingOnce(w.addr, s.hbEvery) {
				misses[w.addr] = 0
				continue
			}
			misses[w.addr]++
			if misses[w.addr] >= 2 {
				s.markDead(w)
			}
		}
	}
}

func pingOnce(addr string, timeout time.Duration) bool {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return false
	}
	defer conn.Close()
	return call(conn, timeout, mPing, &emptyResp{OK: true}, &emptyResp{}) == nil
}

// liveWorkers snapshots the current live worker set.
func (s *Scheduler) liveWorkers() []*workerRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*workerRef
	for _, w := range s.workers {
		if !w.dead.Load() {
			out = append(out, w)
		}
	}
	return out
}

// Name identifies the engine.
func (s *Scheduler) Name() string { return "cluster" }

// Pool exposes the local engine's execution pool.
func (s *Scheduler) Pool() *exec.Pool { return s.local.Pool() }

// ReleaseSpill delegates to the local engine (spill state only exists for
// locally-executed queries).
func (s *Scheduler) ReleaseSpill() error { return s.local.ReleaseSpill() }

// DescribePhysical renders the local engine's physical strategy — the
// distributed phases mirror the local shuffle phases one-to-one, so the
// local rendering describes both backends — then appends the scheduler's
// own placement decision: distribute, or fall back locally and why. Only a
// plan that falls back runs on the local engine, so only its description
// carries the local engine's inline line.
func (s *Scheduler) DescribePhysical(n algebra.Node) string {
	if _, reason := cutPlan(n); reason != "" {
		return s.local.DescribePhysical(n) + fmt.Sprintf("cluster: local fallback (%s)\n", reason)
	}
	if live := len(s.liveWorkers()); live > 0 {
		return s.local.DescribeStrategy(n) + fmt.Sprintf("cluster: distribute (%d workers)\n", live)
	}
	return s.local.DescribePhysical(n) + "cluster: local fallback (no live workers)\n"
}

// ExecuteAsync evaluates the plan in the background.
func (s *Scheduler) ExecuteAsync(n algebra.Node) *exec.Future {
	fut, resolve := exec.NewPromise()
	go func() {
		df, err := s.Execute(n)
		resolve(df, err)
	}()
	return fut
}

// Execute evaluates the plan: distributable plans ship to the workers, the
// rest run locally (recording WHY under the fallback stats). A distributed
// run that fails — worker loss past the retry budget, or any remote
// application error — re-runs locally, so the caller always sees exactly
// the local engine's result and error identity.
func (s *Scheduler) Execute(n algebra.Node) (*core.DataFrame, error) {
	cut, reason := cutPlan(n)
	if reason == "" {
		workers := s.liveWorkers()
		switch {
		case len(workers) == 0:
			reason = "no live workers"
		default:
			df, ok, err := s.tryDistribute(n, cut, workers)
			if ok && err == nil {
				s.count(func(st *Stats) { st.Distributed++ })
				return df, nil
			}
			if ok {
				s.count(func(st *Stats) { st.LocalReruns++ })
				return s.local.Execute(n)
			}
			reason = "unshippable source"
		}
	}
	s.count(func(st *Stats) {
		st.Fallback++
		if st.FallbackReasons == nil {
			st.FallbackReasons = make(map[string]int64)
		}
		st.FallbackReasons[reason]++
	})
	return s.local.Execute(n)
}

// tryDistribute runs plan n, cut as cut, on the workers. ok=false means the
// plan's source could not be banded and nothing ran; ok=true with err means
// the distributed run failed. The band list is cut once — it is the query's
// lineage — and every attempt deals all of it to the workers alive when the
// attempt starts. A worker lost mid-attempt is marked dead and the whole
// attempt re-runs on the survivors: bands are deterministic and the fold is
// a pure function of their summaries, so a retry returns the same cells.
func (s *Scheduler) tryDistribute(n algebra.Node, cut *stagePlan, workers []*workerRef) (*core.DataFrame, bool, error) {
	tasks, ok := planBands(cut, len(workers))
	if !ok {
		return nil, false, nil
	}
	plan, _, err := algebra.EncodePlan(n)
	if err != nil {
		return nil, true, err
	}
	scan, _ := cut.leaf.(*algebra.Scan)
	for retries := 0; ; retries++ {
		a := &attempt{
			s:       s,
			qid:     fmt.Sprintf("q%d-%d", os.Getpid(), s.qseq.Add(1)),
			spec:    PlanSpec{Scan: scan, Buckets: len(workers), Plan: plan},
			cut:     cut,
			tasks:   tasks,
			workers: workers,
		}
		df, err := a.run()
		var wf *workerFailure
		if errors.As(err, &wf) {
			s.markDead(wf.w)
		}
		a.release()
		if wf == nil {
			return df, true, err
		}
		s.count(func(st *Stats) { st.ResubmittedBands += int64(len(a.bandsOf(wf.w))) })
		if workers = s.liveWorkers(); len(workers) == 0 {
			return nil, true, fmt.Errorf("cluster: all workers lost (after %v)", wf.cause)
		}
		if retries == retryBudget {
			return nil, true, fmt.Errorf("cluster: retry budget (%d) exhausted (after %v)", retryBudget, wf.cause)
		}
	}
}

// planBands renders the plan's leaf into band tasks: deterministic scan
// byte ranges (the lineage), or inline blocks cut from the source frame.
func planBands(cut *stagePlan, workers int) ([]BandTask, bool) {
	if scan, ok := cut.leaf.(*algebra.Scan); ok {
		in, ranges, err := scan.Bands()
		if err != nil {
			return nil, false
		}
		in.Close()
		tasks := make([]BandTask, len(ranges))
		for i, rng := range ranges {
			tasks[i] = BandTask{Band: i, Range: rng}
		}
		return tasks, len(tasks) > 0
	}
	df := cut.leaf.(*algebra.Source).DF
	n := df.NRows()
	nb := min(workers, n)
	tasks := make([]BandTask, nb)
	for b := range tasks {
		block, err := EncodeFrame(nil, df.SliceRows(b*n/nb, (b+1)*n/nb))
		if err != nil {
			return nil, false // e.g. composite cells: not shippable
		}
		tasks[b] = BandTask{Band: b, Block: block}
	}
	return tasks, nb > 0
}

// workerFailure marks an RPC outcome attributable to a worker's death
// rather than the query.
type workerFailure struct {
	w     *workerRef
	cause error
}

func (e *workerFailure) Error() string {
	return fmt.Sprintf("cluster: worker %s failed: %v", e.w.addr, e.cause)
}

// attempt is one self-contained distributed run of a query under its own
// query id: band i runs on owners[i % len(owners)], the first workers of
// the attempt, and the shuffle has one bucket per worker. Nothing in it
// outlives the attempt; a retry builds a new one.
type attempt struct {
	s       *Scheduler
	qid     string
	spec    PlanSpec
	cut     *stagePlan
	tasks   []BandTask
	workers []*workerRef

	stats   []*modin.GroupBandStat // group: per band
	samples [][][]types.Value      // sort: per band
	blocks  []*core.DataFrame      // no shuffle: per band
	sizes   [][]int64              // shuffle: per band, routed bytes per bucket
}

// owners returns the attempt's band owners: every worker, or the first
// len(tasks) when there are fewer bands than workers.
func (a *attempt) owners() []*workerRef { return a.workers[:min(len(a.workers), len(a.tasks))] }

// bandsOf lists the bands w owns in this attempt.
func (a *attempt) bandsOf(w *workerRef) []int {
	owners := a.owners()
	var bands []int
	for i := range a.tasks {
		if owners[i%len(owners)] == w {
			bands = append(bands, i)
		}
	}
	return bands
}

// hook fires the test phase hook.
func (a *attempt) hook(phase string) {
	if a.s.OnPhase != nil {
		a.s.OnPhase(phase)
	}
}

// run executes the attempt straight through: bands → fold → (sort)
// partition → merge → restore or stack.
func (a *attempt) run() (*core.DataFrame, error) {
	n := len(a.tasks)
	a.stats, a.samples = make([]*modin.GroupBandStat, n), make([][][]types.Value, n)
	a.blocks, a.sizes = make([]*core.DataFrame, n), make([][]int64, n)
	if err := a.runBands(); err != nil {
		return nil, err
	}
	a.hook("bands")
	if a.cut.group == nil && a.cut.sort == nil {
		return algebra.VStackFrames(a.blocks...)
	}
	// The fold: the same PlanGroupRouting/PlanSortBounds the local engine
	// runs, over the same band-ordered summaries, which is what makes the
	// distributed result cell-identical.
	var ranks [][]int64
	if a.cut.group != nil {
		ranks = modin.PlanGroupRouting(a.stats, a.spec.Buckets, false).Ranks
	} else if err := a.partition(); err != nil {
		return nil, err
	}
	a.hook("partitioned")
	merged, err := a.merge(ranks)
	if err != nil {
		return nil, err
	}
	a.hook("merged")
	if a.cut.group == nil {
		return algebra.VStackFrames(merged...)
	}
	// Repair global first-appearance order across the hash buckets (the same
	// k-way rank merge the local restore exchange runs), then apply the
	// post-shuffle chain the workers deferred — it may drop rows, so it must
	// run after rows and ranks stop needing to align.
	out, err := modin.RestoreGroupOrder(merged, ranks, a.cut.group.AsLabels)
	if err != nil {
		return nil, err
	}
	return physical.RunKernels(a.cut.post, out)
}

// fanOut runs fn(0), …, fn(n-1) in parallel and returns the first worker
// failure among their errors — the one a retry on the survivors can cure —
// or else the first other error.
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	var wf *workerFailure
	for _, err := range errs {
		if errors.As(err, &wf) {
			return err
		}
	}
	return cmp.Or(errs...)
}

// classify maps an RPC error to a worker failure unless it is an in-band
// application error. Fetch errors indict the piece holder, not the callee.
func (a *attempt) classify(w *workerRef, err error) error {
	if fe, ok := err.(*fetchError); ok {
		for _, cand := range a.owners() {
			if cand.addr == fe.addr {
				return &workerFailure{w: cand, cause: err}
			}
		}
		return &workerFailure{w: w, cause: err}
	}
	if _, ok := err.(*remoteError); ok {
		return err
	}
	return &workerFailure{w: w, cause: err}
}

// runBands sends each owner one RunBands request carrying the plan and its
// bands, and records the bands' stage outputs.
func (a *attempt) runBands() error {
	owners := a.owners()
	return fanOut(len(owners), func(j int) error {
		w, bands := owners[j], a.bandsOf(owners[j])
		req := &RunBandsReq{QID: a.qid, Plan: a.spec}
		for _, i := range bands {
			req.Bands = append(req.Bands, a.tasks[i])
		}
		var resp RunBandsResp
		if err := w.call(a.s.rpcTimeout, mRunBands, req, &resp); err != nil {
			return a.classify(w, err)
		}
		if len(resp.Results) != len(bands) {
			return fmt.Errorf("cluster: worker %s returned %d band results, want %d", w.addr, len(resp.Results), len(bands))
		}
		for k, res := range resp.Results {
			if err := a.record(bands[k], res); err != nil {
				return err
			}
		}
		return nil
	})
}

// record stores band i's stage output coordinator-side.
func (a *attempt) record(i int, res BandResult) error {
	switch {
	case a.cut.group != nil:
		if res.Group == nil {
			return fmt.Errorf("cluster: band %d returned no group stat", i)
		}
		// The band routed itself on its worker (hash % Buckets) and reported
		// the per-bucket piece sizes; there is no partition phase to wait for.
		if len(res.Sizes) != a.spec.Buckets {
			return fmt.Errorf("cluster: band %d reported %d piece sizes, want %d buckets", i, len(res.Sizes), a.spec.Buckets)
		}
		a.stats[i], a.sizes[i] = res.Group, res.Sizes
	case a.cut.sort != nil:
		a.samples[i] = res.Sort
	default:
		df, err := decodeBlock(res.Block, "band")
		if err != nil {
			return err
		}
		a.blocks[i] = df
	}
	return nil
}

// partition folds the sort samples into range bounds and has every owner
// route its sort bands by them. Group bands routed themselves at band time.
func (a *attempt) partition() error {
	var all [][]types.Value
	for _, s := range a.samples {
		all = append(all, s...)
	}
	bounds := modin.PlanSortBounds(all, a.spec.Buckets, a.cut.sort)
	owners := a.owners()
	return fanOut(len(owners), func(j int) error {
		w := owners[j]
		req := &PartitionReq{QID: a.qid, Bands: a.bandsOf(w), Bounds: bounds}
		var resp PartitionResp
		if err := w.call(a.s.rpcTimeout, mPartition, req, &resp); err != nil {
			return a.classify(w, err)
		}
		if len(resp.Sizes) != len(req.Bands) {
			return fmt.Errorf("cluster: worker %s reported sizes for %d bands, want %d", w.addr, len(resp.Sizes), len(req.Bands))
		}
		for k, i := range req.Bands {
			if len(resp.Sizes[k]) != a.spec.Buckets {
				return fmt.Errorf("cluster: band %d reported %d piece sizes, want %d buckets", i, len(resp.Sizes[k]), a.spec.Buckets)
			}
			a.sizes[i] = resp.Sizes[k]
		}
		return nil
	})
}

// placeMerge picks the band owner holding the most bytes of the bucket's
// routed pieces (band i lives on owners[i % len(owners)]; ties go to the
// earlier owner, so placement is deterministic).
func placeMerge(owners []*workerRef, sizes [][]int64, bucket int) *workerRef {
	held := make([]int64, len(owners))
	for i, s := range sizes {
		held[i%len(owners)] += s[bucket]
	}
	best := 0
	for j := range held {
		if held[j] > held[best] {
			best = j
		}
	}
	return owners[best]
}

// merge runs every bucket's merge on its placed owner, in parallel, and
// returns the merged buckets.
func (a *attempt) merge(ranks [][]int64) ([]*core.DataFrame, error) {
	owners := a.owners()
	merged := make([]*core.DataFrame, a.spec.Buckets)
	err := fanOut(len(merged), func(b int) error {
		target := placeMerge(owners, a.sizes, b)
		req := &MergeReq{QID: a.qid, Bucket: b}
		for i := range a.tasks {
			ref := PieceRef{Band: i}
			if holder := owners[i%len(owners)]; holder != target {
				ref.Addr = holder.addr
			}
			req.Pieces = append(req.Pieces, ref)
		}
		if ranks != nil {
			req.Ranks = ranks[b]
		}
		var resp MergeResp
		if err := target.call(a.s.rpcTimeout, mMerge, req, &resp); err != nil {
			return a.classify(target, err)
		}
		df, err := decodeBlock(resp.Block, "bucket")
		merged[b] = df
		return err
	})
	return merged, err
}

// release drops the attempt's query state on every live worker of the
// attempt, best-effort.
func (a *attempt) release() {
	for _, w := range a.workers {
		if !w.dead.Load() {
			w.call(5*time.Second, mRelease, &ReleaseReq{QID: a.qid}, &emptyResp{})
		}
	}
}
