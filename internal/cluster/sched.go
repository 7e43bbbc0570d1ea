package cluster

import (
	"fmt"
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

	stats clusterStats

	// OnPhase, when set, is called at run phase boundaries ("bands",
	// "partitioned", "merged") — the deterministic hook fault-injection
	// tests use to kill a worker mid-query.
	OnPhase func(phase string)
}

// clusterStats counts scheduler outcomes.
type clusterStats struct {
	distributed, fallback, reruns atomic.Int64
	resubmitted, deadWorkers      atomic.Int64

	mu      sync.Mutex
	reasons map[string]int64
}

// recordFallback counts one local fallback under its reason.
func (c *clusterStats) recordFallback(reason string) {
	c.fallback.Add(1)
	c.mu.Lock()
	if c.reasons == nil {
		c.reasons = make(map[string]int64)
	}
	c.reasons[reason]++
	c.mu.Unlock()
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
	// LocalReruns counts distributed attempts that failed past the retry
	// budget and were re-run locally.
	LocalReruns int64
	// ResubmittedBands counts band lineages re-submitted after a worker
	// loss.
	ResubmittedBands int64
	// DeadWorkers counts workers declared lost.
	DeadWorkers int64
}

// ClusterStats returns a snapshot of the scheduler's counters.
func (s *Scheduler) ClusterStats() Stats {
	st := Stats{
		Distributed:      s.stats.distributed.Load(),
		Fallback:         s.stats.fallback.Load(),
		LocalReruns:      s.stats.reruns.Load(),
		ResubmittedBands: s.stats.resubmitted.Load(),
		DeadWorkers:      s.stats.deadWorkers.Load(),
	}
	s.stats.mu.Lock()
	if len(s.stats.reasons) > 0 {
		st.FallbackReasons = make(map[string]int64, len(s.stats.reasons))
		for k, v := range s.stats.reasons {
			st.FallbackReasons[k] = v
		}
	}
	s.stats.mu.Unlock()
	return st
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

// retryBudget bounds lineage re-submission rounds per query.
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
			w.dead.Store(true)
			s.stats.deadWorkers.Add(1)
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
			if misses[w.addr] >= 2 && !w.dead.Swap(true) {
				s.stats.deadWorkers.Add(1)
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

// DescribePhysical renders the local engine's physical plan — the
// distributed phases mirror the local shuffle phases one-to-one, so the
// local rendering describes both backends — then appends the scheduler's
// own placement decision: distribute, or fall back locally and why.
func (s *Scheduler) DescribePhysical(n algebra.Node) string {
	desc := s.local.DescribePhysical(n)
	if _, reason := cutPlan(n); reason != "" {
		return desc + fmt.Sprintf("cluster: local fallback (%s)\n", reason)
	}
	if live := len(s.liveWorkers()); live > 0 {
		return desc + fmt.Sprintf("cluster: distribute (%d workers)\n", live)
	}
	return desc + "cluster: local fallback (no live workers)\n"
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
// attempt that fails — worker loss past the retry budget, or any remote
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
				s.stats.distributed.Add(1)
				return df, nil
			}
			if ok {
				s.stats.reruns.Add(1)
				return s.local.Execute(n)
			}
			reason = "unshippable source"
		}
	}
	s.stats.recordFallback(reason)
	return s.local.Execute(n)
}

// tryDistribute attempts a distributed run of plan n, cut as cut. ok=false
// means the plan's source could not be banded and nothing ran; ok=true with
// err means a distributed attempt failed.
func (s *Scheduler) tryDistribute(n algebra.Node, cut *stagePlan, workers []*workerRef) (*core.DataFrame, bool, error) {
	// The shuffle's bucket count rides inside the shipped plan: group bands
	// need it to route themselves at band time, before any coordinator fold.
	spec := PlanSpec{Source: cut.src, Buckets: len(workers)}
	bands, ok, err := s.planBands(cut, len(workers))
	if err != nil || !ok {
		return nil, false, nil
	}
	if spec.Plan, _, err = algebra.EncodePlan(n); err != nil {
		return nil, true, err
	}
	r := &run{
		s:       s,
		qid:     fmt.Sprintf("q%d-%d", os.Getpid(), s.qseq.Add(1)),
		spec:    spec,
		cut:     cut,
		buckets: len(workers),
		bands:   bands,
		workers: workers,
	}
	// Round-robin initial assignment: band i on worker i mod n.
	for i := range r.bands {
		r.bands[i].owner = r.workers[i%len(r.workers)]
	}
	r.partitioned = make([]bool, len(bands))
	r.blocks = make([]*core.DataFrame, len(bands))
	r.merged = make([]*core.DataFrame, r.buckets)
	r.sizes = make([][]int64, len(bands))
	if cut.group != nil {
		r.stats = make([]*modin.GroupBandStat, len(bands))
	} else if cut.sort != nil {
		r.samples = make([][][]types.Value, len(bands))
	}
	df, err := r.drive()
	return df, true, err
}

// planBands renders the plan's leaf into band tasks: deterministic scan
// byte ranges (the lineage), or inline blocks cut from the source frame.
func (s *Scheduler) planBands(cut *stagePlan, workers int) ([]bandState, bool, error) {
	if scan, ok := cut.leaf.(*algebra.Scan); ok {
		in, ranges, err := scan.Bands()
		if err != nil {
			return nil, false, err
		}
		in.Close()
		if len(ranges) == 0 {
			return nil, false, nil
		}
		bands := make([]bandState, len(ranges))
		for i, rng := range ranges {
			bands[i].task = BandTask{Band: i, Range: rng}
		}
		return bands, true, nil
	}
	df := cut.leaf.(*algebra.Source).DF
	n := df.NRows()
	if n == 0 {
		return nil, false, nil
	}
	nb := workers
	if n < nb {
		nb = n
	}
	bands := make([]bandState, nb)
	for b := 0; b < nb; b++ {
		lo, hi := b*n/nb, (b+1)*n/nb
		block, err := EncodeFrame(nil, df.SliceRows(lo, hi))
		if err != nil {
			return nil, false, nil // e.g. composite cells: not shippable
		}
		bands[b] = bandState{task: BandTask{Band: b, Block: block}}
	}
	return bands, true, nil
}

// bandState tracks one band through the run.
type bandState struct {
	task    BandTask
	owner   *workerRef
	ran     bool
	stat    *modin.GroupBandStat
	samples [][]types.Value
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

// run is one distributed query execution: an idempotent phase state machine
// whose recovery loop re-submits lost lineage and re-runs only what died.
type run struct {
	s       *Scheduler
	qid     string
	spec    PlanSpec
	cut     *stagePlan
	buckets int
	bands   []bandState
	workers []*workerRef
	rr      int // round-robin cursor for reassignment

	prepared    map[*workerRef]bool
	foldDone    bool
	routing     *modin.GroupRouting
	stats       []*modin.GroupBandStat
	samples     [][][]types.Value
	bounds      [][]types.Value
	partitioned []bool
	sizes       [][]int64
	merged      []*core.DataFrame
	blocks      []*core.DataFrame
	attempts    int
}

// drive loops phases until the query completes, recovering from worker
// failures by re-submitting the lost bands' lineage — bounded by the retry
// budget.
func (r *run) drive() (*core.DataFrame, error) {
	r.prepared = make(map[*workerRef]bool)
	for {
		df, err := r.runPhases()
		if err == nil {
			r.release()
			return df, nil
		}
		var wf *workerFailure
		if !asWorkerFailure(err, &wf) {
			r.release()
			return nil, err
		}
		if rerr := r.recover(wf.w); rerr != nil {
			r.release()
			return nil, fmt.Errorf("%w (after %v)", rerr, wf.cause)
		}
	}
}

func asWorkerFailure(err error, out **workerFailure) bool {
	for err != nil {
		if wf, ok := err.(*workerFailure); ok {
			*out = wf
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// hook fires the test phase hook.
func (r *run) hook(phase string) {
	if r.s.OnPhase != nil {
		r.s.OnPhase(phase)
	}
}

// runPhases advances every phase, skipping completed units.
func (r *run) runPhases() (*core.DataFrame, error) {
	if err := r.runBands(); err != nil {
		return nil, err
	}
	r.hook("bands")
	if r.cut.group == nil && r.cut.sort == nil {
		return r.assembleBlocks()
	}
	r.fold()
	if err := r.partition(); err != nil {
		return nil, err
	}
	r.hook("partitioned")
	if err := r.merge(); err != nil {
		return nil, err
	}
	r.hook("merged")
	if r.cut.group != nil {
		// Repair global first-appearance order across the hash buckets (the
		// same k-way rank merge the local restore exchange runs), then apply
		// the post-shuffle chain the workers deferred — it may drop rows, so
		// it must run after rows and ranks stop needing to align.
		out, err := modin.RestoreGroupOrder(r.merged, r.routing.Ranks, r.cut.group.AsLabels)
		if err != nil {
			return nil, err
		}
		return physical.RunKernels(r.cut.post, out)
	}
	return algebra.VStackFrames(r.merged...)
}

// eachOwner groups the listed band indices by owner and runs fn per owner
// in parallel, returning the highest-priority failure (worker failures
// first — they are recoverable).
func (r *run) eachOwner(bandIdx []int, fn func(w *workerRef, bands []int) error) error {
	byOwner := make(map[*workerRef][]int)
	for _, i := range bandIdx {
		byOwner[r.bands[i].owner] = append(byOwner[r.bands[i].owner], i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var wfErr, appErr error
	for w, bands := range byOwner {
		wg.Add(1)
		go func(w *workerRef, bands []int) {
			defer wg.Done()
			err := fn(w, bands)
			if err == nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			var wf *workerFailure
			if asWorkerFailure(err, &wf) {
				if wfErr == nil {
					wfErr = err
				}
			} else if appErr == nil {
				appErr = err
			}
		}(w, bands)
	}
	wg.Wait()
	if wfErr != nil {
		return wfErr
	}
	return appErr
}

// classify maps an RPC error to a worker failure unless it is an in-band
// application error. Fetch errors indict the piece holder, not the callee.
func (r *run) classify(w *workerRef, err error) error {
	if err == nil {
		return nil
	}
	if fe, ok := err.(*fetchError); ok {
		for _, cand := range r.workers {
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

// ensurePrepared installs the plan on a worker once.
func (r *run) ensurePrepared(w *workerRef) error {
	if r.prepared[w] {
		return nil
	}
	err := w.call(r.s.rpcTimeout, mPrepare, &PrepareReq{QID: r.qid, Plan: r.spec}, &emptyResp{})
	if err != nil {
		return r.classify(w, err)
	}
	r.prepared[w] = true
	return nil
}

// runBands executes the pre-shuffle stage for every band not yet run.
func (r *run) runBands() error {
	var todo []int
	for i := range r.bands {
		if !r.bands[i].ran {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	var mu sync.Mutex
	return r.eachOwner(todo, func(w *workerRef, bands []int) error {
		mu.Lock()
		err := r.ensurePrepared(w)
		mu.Unlock()
		if err != nil {
			return err
		}
		req := &RunBandsReq{QID: r.qid}
		for _, i := range bands {
			req.Bands = append(req.Bands, r.bands[i].task)
		}
		var resp RunBandsResp
		if err := w.call(r.s.rpcTimeout, mRunBands, req, &resp); err != nil {
			return r.classify(w, err)
		}
		if len(resp.Results) != len(bands) {
			return fmt.Errorf("cluster: worker %s returned %d band results, want %d", w.addr, len(resp.Results), len(bands))
		}
		for _, res := range resp.Results {
			if err := r.recordBand(res); err != nil {
				return err
			}
		}
		return nil
	})
}

// recordBand stores one band's stage output coordinator-side.
func (r *run) recordBand(res BandResult) error {
	b := &r.bands[res.Band]
	switch {
	case r.cut.group != nil:
		if res.Group == nil {
			return fmt.Errorf("cluster: band %d returned no group stat", res.Band)
		}
		// After a re-submission the fold is already done; the lineage
		// re-run reproduces the same summary, so keep the original.
		if r.stats[res.Band] == nil {
			r.stats[res.Band] = res.Group
		}
		// The band routed itself on its worker (hash % Buckets) and reported
		// the per-bucket piece sizes; there is no partition phase to wait
		// for. A re-run after worker loss re-creates identical pieces — the
		// routing is a pure function of the keys — so overwriting sizes is
		// idempotent.
		if len(res.Sizes) != r.buckets {
			return fmt.Errorf("cluster: band %d reported %d piece sizes, want %d buckets", res.Band, len(res.Sizes), r.buckets)
		}
		r.sizes[res.Band] = res.Sizes
		r.partitioned[res.Band] = true
	case r.cut.sort != nil:
		if r.samples[res.Band] == nil {
			r.samples[res.Band] = res.Sort
		}
	default:
		df, rest, err := DecodeFrame(res.Block)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("cluster: %d trailing bytes after band block", len(rest))
		}
		r.blocks[res.Band] = df
	}
	b.ran = true
	return nil
}

// fold computes the shuffle routing once, after all band summaries exist —
// the same PlanGroupRouting/PlanSortBounds fold the local engine runs, over
// the same band-ordered stats, which is what makes the distributed result
// cell-identical.
func (r *run) fold() {
	if r.foldDone {
		return
	}
	if r.cut.group != nil {
		r.routing = modin.PlanGroupRouting(r.stats, r.buckets, false)
	} else {
		var all [][]types.Value
		for _, s := range r.samples {
			all = append(all, s...)
		}
		r.bounds = modin.PlanSortBounds(all, r.buckets, r.cut.sort)
	}
	r.foldDone = true
}

// partition routes every sort band not yet partitioned on its owner. Group
// bands partitioned themselves at band time (recordBand observed their
// sizes), so the phase is a no-op for keyed shuffles.
func (r *run) partition() error {
	if r.cut.group != nil {
		return nil
	}
	var todo []int
	for i := range r.bands {
		if !r.partitioned[i] {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	return r.eachOwner(todo, func(w *workerRef, bands []int) error {
		req := &PartitionReq{QID: r.qid, Bands: bands, Buckets: r.buckets, Bounds: r.bounds}
		var resp PartitionResp
		if err := w.call(r.s.rpcTimeout, mPartition, req, &resp); err != nil {
			return r.classify(w, err)
		}
		for _, i := range bands {
			bandSizes, ok := resp.Sizes[i]
			if !ok {
				return fmt.Errorf("cluster: worker %s reported no sizes for band %d", w.addr, i)
			}
			sizes := make([]int64, r.buckets)
			for b, n := range bandSizes {
				if b >= 0 && b < r.buckets {
					sizes[b] = n
				}
			}
			r.sizes[i] = sizes
			r.partitioned[i] = true
		}
		return nil
	})
}

// placeMerge picks the worker holding the most bytes of the bucket's routed
// pieces (ties to the earlier worker in the run's ordering, so placement is
// deterministic).
func (r *run) placeMerge(bucket int) *workerRef {
	held := make(map[*workerRef]int64)
	for i := range r.bands {
		held[r.bands[i].owner] += r.sizes[i][bucket]
	}
	var best *workerRef
	var bestBytes int64 = -1
	for _, w := range r.workers {
		if held[w] > bestBytes {
			best, bestBytes = w, held[w]
		}
	}
	return best
}

// merge runs every bucket not yet merged on its placed worker, in parallel.
func (r *run) merge() error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var wfErr, appErr error
	for b := 0; b < r.buckets; b++ {
		if r.merged[b] != nil {
			continue
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			df, err := r.mergeBucket(b)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var wf *workerFailure
				if asWorkerFailure(err, &wf) {
					if wfErr == nil {
						wfErr = err
					}
				} else if appErr == nil {
					appErr = err
				}
				return
			}
			r.merged[b] = df
		}(b)
	}
	wg.Wait()
	if wfErr != nil {
		return wfErr
	}
	return appErr
}

func (r *run) mergeBucket(b int) (*core.DataFrame, error) {
	target := r.placeMerge(b)
	req := &MergeReq{QID: r.qid, Bucket: b}
	for i := range r.bands {
		addr := r.bands[i].owner.addr
		if r.bands[i].owner == target {
			addr = ""
		}
		req.Pieces = append(req.Pieces, PieceRef{Band: i, Addr: addr})
	}
	if r.routing != nil {
		req.Ranks = r.routing.Ranks[b]
	}
	var resp MergeResp
	if err := target.call(r.s.rpcTimeout, mMerge, req, &resp); err != nil {
		return nil, r.classify(target, err)
	}
	df, rest, err := DecodeFrame(resp.Block)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after bucket block", len(rest))
	}
	return df, nil
}

// assembleBlocks concatenates the no-shuffle band results in band order —
// the distributed analog of the local gather.
func (r *run) assembleBlocks() (*core.DataFrame, error) {
	return algebra.VStackFrames(r.blocks...)
}

// recover handles one worker's death: reassign its bands to survivors and
// re-submit their lineage (scan ranges or inline blocks are still at the
// coordinator; summaries are kept so the routing fold never re-runs).
func (r *run) recover(dead *workerRef) error {
	if !dead.dead.Swap(true) {
		r.s.stats.deadWorkers.Add(1)
	}
	delete(r.prepared, dead)
	live := r.workers[:0:0]
	for _, w := range r.workers {
		if w != dead && !w.dead.Load() {
			live = append(live, w)
		}
	}
	r.workers = live
	if len(r.workers) == 0 {
		return fmt.Errorf("cluster: all workers lost")
	}
	r.attempts++
	if r.attempts > retryBudget {
		return fmt.Errorf("cluster: retry budget (%d) exhausted", retryBudget)
	}
	shuffle := r.cut.group != nil || r.cut.sort != nil
	for i := range r.bands {
		b := &r.bands[i]
		if b.owner != dead && !b.owner.dead.Load() {
			continue
		}
		b.owner = r.workers[r.rr%len(r.workers)]
		r.rr++
		// A no-shuffle band whose block already landed is safe at the
		// coordinator; shuffle bands lost their worker-side frame, ordinals
		// and pieces, so their lineage re-runs (the kept summary makes the
		// re-run's stat a no-op).
		if shuffle {
			if b.ran {
				r.s.stats.resubmitted.Add(1)
			}
			b.ran = false
			r.partitioned[i] = false
		} else if r.blocks[i] == nil {
			if b.ran {
				r.s.stats.resubmitted.Add(1)
			}
			b.ran = false
		}
	}
	return nil
}

// release drops the query's state on every live worker, best-effort.
func (r *run) release() {
	for _, w := range r.workers {
		if w.dead.Load() {
			continue
		}
		w.call(5*time.Second, mRelease, &ReleaseReq{QID: r.qid}, &emptyResp{})
	}
}
