package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/modin"
	"repro/internal/schema"
	"repro/internal/vector"
)

// Worker executes shipped stage plans: it parses or decodes bands, runs the
// pre-shuffle chain through the same typed kernels the in-process engine
// uses, routes rows with the coordinator's folded tables, merges buckets
// with the shared modin merge helpers, and serves routed pieces to peer
// workers. One process hosts one Worker; the dfworker command is a thin
// main around it.
type Worker struct {
	pool *exec.Pool
	ls   net.Listener

	mu      sync.Mutex
	queries map[string]*workerQuery
	peers   map[string]*peerLink
	conns   map[net.Conn]struct{}
	closed  bool
}

// peerLink is one cached worker-to-worker connection; its mutex serializes
// the fetches of concurrent merge tasks onto the serial wire protocol.
type peerLink struct {
	mu   sync.Mutex
	conn net.Conn
}

// workerQuery is one query's worker-side state. Sort band frames live here
// between RunBands and Partition (group bands route themselves inside
// RunBands and hold nothing but pieces); routed pieces stay until Release
// so a retried merge can re-fetch them.
type workerQuery struct {
	mu     sync.Mutex
	plan   *PlanSpec
	bands  map[int]*core.DataFrame
	pieces map[[2]int]*core.DataFrame
}

// NewWorker starts a worker listening on addr (e.g. "127.0.0.1:0") and
// serving connections until Close.
func NewWorker(addr string) (*Worker, error) {
	ls, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		pool:    exec.Default,
		ls:      ls,
		queries: make(map[string]*workerQuery),
		peers:   make(map[string]*peerLink),
		conns:   make(map[net.Conn]struct{}),
	}
	go w.serve()
	return w, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ls.Addr().String() }

// Close stops the worker, severing accepted connections so peers and the
// coordinator observe the loss immediately (also what lets tests simulate
// a worker death in-process), and drops all query state.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.closed = true
	for _, p := range w.peers {
		if p.conn != nil {
			p.conn.Close()
		}
	}
	for c := range w.conns {
		c.Close()
	}
	w.peers = map[string]*peerLink{}
	w.conns = map[net.Conn]struct{}{}
	w.queries = map[string]*workerQuery{}
	w.mu.Unlock()
	return w.ls.Close()
}

func (w *Worker) serve() {
	for {
		conn, err := w.ls.Accept()
		if err != nil {
			return
		}
		go w.serveConn(conn)
	}
}

// serveConn handles one connection's serial request stream.
func (w *Worker) serveConn(conn net.Conn) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		conn.Close()
		return
	}
	w.conns[conn] = struct{}{}
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.conns, conn)
		w.mu.Unlock()
		conn.Close()
	}()
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return
		}
		resp, err := w.handle(kind, payload)
		if err := respond(conn, resp, err); err != nil {
			return
		}
	}
}

// handle decodes and executes one request.
func (w *Worker) handle(kind byte, payload []byte) (any, error) {
	switch kind {
	case mPing:
		return emptyResp{OK: true}, nil
	case mPrepare:
		var req PrepareReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.prepare(&req)
	case mRunBands:
		var req RunBandsReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.runBands(&req)
	case mPartition:
		var req PartitionReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.partition(&req)
	case mMerge:
		var req MergeReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.merge(&req)
	case mFetch:
		var req FetchReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.fetch(&req)
	case mRelease:
		var req ReleaseReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		w.mu.Lock()
		delete(w.queries, req.QID)
		w.mu.Unlock()
		return emptyResp{OK: true}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown request kind %d", kind)
	}
}

// query returns (creating if create) the state for qid.
func (w *Worker) query(qid string, create bool) (*workerQuery, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := w.queries[qid]
	if q == nil {
		if !create {
			return nil, fmt.Errorf("cluster: unknown query %q", qid)
		}
		q = &workerQuery{
			bands:  make(map[int]*core.DataFrame),
			pieces: make(map[[2]int]*core.DataFrame),
		}
		w.queries[qid] = q
	}
	return q, nil
}

func (w *Worker) prepare(req *PrepareReq) (any, error) {
	q, err := w.query(req.QID, true)
	if err != nil {
		return nil, err
	}
	plan := req.Plan
	q.mu.Lock()
	q.plan = &plan
	q.mu.Unlock()
	return emptyResp{OK: true}, nil
}

// runBands executes the pre-shuffle stage for the requested bands in
// parallel on the worker's pool.
func (w *Worker) runBands(req *RunBandsReq) (any, error) {
	q, err := w.query(req.QID, false)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	plan := q.plan
	q.mu.Unlock()
	if plan == nil {
		return nil, fmt.Errorf("cluster: query %q has no plan", req.QID)
	}
	results := make([]BandResult, len(req.Bands))
	err = w.pool.ForEach(len(req.Bands), func(i int) error {
		r, err := w.runBand(q, plan, &req.Bands[i])
		if err != nil {
			return fmt.Errorf("cluster: band %d: %w", req.Bands[i].Band, err)
		}
		results[i] = *r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &RunBandsResp{Results: results}, nil
}

// runBand produces one band: materialize its rows with global labels, run
// the shipped chain, then either return the block (no shuffle) or hold the
// frame and report its shuffle summary.
func (w *Worker) runBand(q *workerQuery, plan *PlanSpec, task *BandTask) (*BandResult, error) {
	df, err := w.buildBand(plan, task)
	if err != nil {
		return nil, err
	}
	df, err = applyOps(df, plan.Pre)
	if err != nil {
		return nil, err
	}
	// One coalescing copy at stage exit, exactly like the fused local chain,
	// so summaries and blocks are built over compact storage.
	df = df.Compact()
	res := &BandResult{Band: task.Band, Rows: df.NRows()}
	switch {
	case plan.Group != nil:
		sum, err := algebra.SummarizeGroupKeys(df, plan.Group.Keys)
		if err != nil {
			return nil, err
		}
		res.Group = modin.GroupStatOf(sum)
		// Incremental routing: bucket = key hash % buckets is identical in
		// every band, so this band partitions from its own summary right here
		// — no round trip for a routing table, and the band frame (plus its
		// O(rows) ordinal table) dies at band scope instead of waiting for a
		// global plan. Compacting the split's views into owned copies is what
		// releases df's storage.
		if plan.Buckets <= 0 {
			return nil, fmt.Errorf("cluster: group plan shipped without a bucket count")
		}
		views, err := modin.RouteGroupBand(df, sum, *plan.Group, plan.Buckets)
		if err != nil {
			return nil, err
		}
		res.Sizes = make([]int64, plan.Buckets)
		for b, view := range views {
			views[b] = view.Compact()
			res.Sizes[b] = frameBytes(views[b])
		}
		q.mu.Lock()
		for b, piece := range views {
			q.pieces[[2]int{task.Band, b}] = piece
		}
		q.mu.Unlock()
	case plan.Sort != nil:
		res.Sort, err = modin.SampleSortKeys(df, plan.Sort)
		if err != nil {
			return nil, err
		}
		q.mu.Lock()
		q.bands[task.Band] = df
		q.mu.Unlock()
	default:
		res.Block, err = EncodeFrame(nil, df)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildBand materializes one band's rows — re-parsing its scan lineage or
// decoding its shipped block — and assigns its global row labels before any
// operator runs, matching the local streaming scan exactly.
func (w *Worker) buildBand(plan *PlanSpec, task *BandTask) (*core.DataFrame, error) {
	src := &plan.Source
	if src.Kind == srcFrame {
		df, rest, err := DecodeFrame(task.Block)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("cluster: %d trailing bytes after band block", len(rest))
		}
		return df, nil
	}
	r, err := openRange(src, task.Range)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	cur, err := core.NewCSVCursor(r, core.CSVOptions{Comma: rune(src.Comma), Header: false})
	if err != nil {
		return nil, err
	}
	band, err := cur.NextBand(task.Range.Rows)
	if err == io.EOF || (err == nil && band.NRows() != task.Range.Rows) {
		return nil, fmt.Errorf("cluster: band lineage yielded fewer rows than split planned")
	}
	if err != nil {
		return nil, err
	}
	if src.Columns != nil {
		// The split ships byte ranges without headers; name the parsed
		// columns from the probed header labels.
		band, err = core.New(src.Columns, band.Columns())
		if err != nil {
			return nil, err
		}
	}
	band, err = band.WithRowLabels(vector.Range(task.Range.Row, band.NRows()))
	if err != nil {
		return nil, err
	}
	return band.WithCache(schema.NewCache()), nil
}

// openRange opens one scan band's byte range.
func openRange(src *SourceSpec, rng BandRange) (io.ReadCloser, error) {
	switch src.Kind {
	case srcScanData:
		if rng.Offset+rng.Length > int64(len(src.Data)) {
			return nil, fmt.Errorf("cluster: band range beyond shipped input")
		}
		return io.NopCloser(bytes.NewReader(src.Data[rng.Offset : rng.Offset+rng.Length])), nil
	case srcScanPath:
		f, err := os.Open(src.Path)
		if err != nil {
			return nil, err
		}
		return struct {
			io.Reader
			io.Closer
		}{io.NewSectionReader(f, rng.Offset, rng.Length), f}, nil
	default:
		return nil, fmt.Errorf("cluster: source kind %d has no byte ranges", src.Kind)
	}
}

// partition routes the listed sort bands into buckets by the folded range
// bounds and reports per-bucket piece sizes. Sort pieces are contiguous
// slices that together cover exactly the sorted copy, so retaining them
// retains no dead rows. Group bands never arrive here — they routed
// themselves in runBand.
func (w *Worker) partition(req *PartitionReq) (any, error) {
	q, err := w.query(req.QID, false)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	plan := q.plan
	q.mu.Unlock()
	if plan == nil {
		return nil, fmt.Errorf("cluster: query %q has no plan", req.QID)
	}
	sizes := make(map[int]map[int]int64, len(req.Bands))
	var mu sync.Mutex
	err = w.pool.ForEach(len(req.Bands), func(i int) error {
		band := req.Bands[i]
		q.mu.Lock()
		df := q.bands[band]
		q.mu.Unlock()
		if df == nil {
			return fmt.Errorf("cluster: band %d not resident for partition", band)
		}
		if plan.Sort == nil {
			return fmt.Errorf("cluster: plan has no range shuffle to partition")
		}
		views, err := modin.PartitionSortedBand(df, plan.Sort, req.Bounds, req.Buckets)
		if err != nil {
			return err
		}
		bandSizes := make(map[int]int64, req.Buckets)
		q.mu.Lock()
		for b, piece := range views {
			q.pieces[[2]int{band, b}] = piece
			bandSizes[b] = frameBytes(piece)
		}
		delete(q.bands, band)
		q.mu.Unlock()
		mu.Lock()
		sizes[band] = bandSizes
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &PartitionResp{Sizes: sizes}, nil
}

// merge folds one bucket's routed pieces — fetching remote ones from their
// holders — through the shared modin merge helpers, then applies the
// post-shuffle chain.
func (w *Worker) merge(req *MergeReq) (any, error) {
	q, err := w.query(req.QID, false)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	plan := q.plan
	q.mu.Unlock()
	if plan == nil {
		return nil, fmt.Errorf("cluster: query %q has no plan", req.QID)
	}
	frames := make([]*core.DataFrame, len(req.Pieces))
	err = w.pool.ForEach(len(req.Pieces), func(i int) error {
		ref := req.Pieces[i]
		if ref.Addr == "" {
			q.mu.Lock()
			df := q.pieces[[2]int{ref.Band, req.Bucket}]
			q.mu.Unlock()
			if df == nil {
				return fmt.Errorf("cluster: piece band=%d bucket=%d not resident", ref.Band, req.Bucket)
			}
			frames[i] = df
			return nil
		}
		df, err := w.fetchPeer(ref.Addr, req.QID, ref.Band, req.Bucket)
		if err != nil {
			return err
		}
		frames[i] = df
		return nil
	})
	if err != nil {
		return nil, err
	}
	var out *core.DataFrame
	switch {
	case plan.Group != nil:
		// A single-bucket view of the shared merge: this bucket's rank list
		// validates the group count here, while the coordinator keeps the
		// full routing for the global order restore.
		routing := &modin.GroupRouting{Ranks: [][]int64{req.Ranks}}
		if req.Heavy {
			routing.Heavy = []bool{true}
		}
		out, err = modin.MergeGroupBucket(w.pool, frames, *plan.Group, routing, 0)
	case plan.Sort != nil:
		out, err = modin.MergeSortBucket(frames, plan.Sort)
	default:
		return nil, fmt.Errorf("cluster: plan has no shuffle to merge")
	}
	if err != nil {
		return nil, err
	}
	if plan.Group == nil {
		// Group buckets keep their rows rank-aligned: the post-shuffle chain
		// could drop rows, so the coordinator applies it after the restore.
		out, err = applyOps(out, plan.Post)
		if err != nil {
			return nil, err
		}
	}
	out = out.Compact()
	block, err := EncodeFrame(nil, out)
	if err != nil {
		return nil, err
	}
	return &MergeResp{Block: block, Rows: out.NRows()}, nil
}

// fetch serves one resident routed piece to a peer.
func (w *Worker) fetch(req *FetchReq) (any, error) {
	q, err := w.query(req.QID, false)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	df := q.pieces[[2]int{req.Band, req.Bucket}]
	q.mu.Unlock()
	if df == nil {
		return nil, fmt.Errorf("cluster: piece band=%d bucket=%d not resident", req.Band, req.Bucket)
	}
	block, err := EncodeFrame(nil, df)
	if err != nil {
		return nil, err
	}
	return &FetchResp{Block: block}, nil
}

// fetchPeer retrieves one routed piece from the worker at addr. Transport
// failures surface as fetchError so the coordinator can attribute them to
// the piece holder rather than this worker.
func (w *Worker) fetchPeer(addr, qid string, band, bucket int) (*core.DataFrame, error) {
	link, err := w.peerLink(addr)
	if err != nil {
		return nil, &fetchError{addr: addr, msg: err.Error()}
	}
	link.mu.Lock()
	var resp FetchResp
	err = call(link.conn, 0, mFetch, &FetchReq{QID: qid, Band: band, Bucket: bucket}, &resp)
	link.mu.Unlock()
	if err != nil {
		w.dropPeer(addr, link)
		if _, ok := err.(*remoteError); ok {
			return nil, err
		}
		return nil, &fetchError{addr: addr, msg: err.Error()}
	}
	df, rest, err := DecodeFrame(resp.Block)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after piece block", len(rest))
	}
	return df, nil
}

// peerLink returns a cached connection to a peer worker, dialing on first
// use. The link's mutex serializes concurrent fetches; merges of different
// buckets queue on it, which keeps the peer protocol trivial.
func (w *Worker) peerLink(addr string) (*peerLink, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("worker closed")
	}
	if p := w.peers[addr]; p != nil {
		return p, nil
	}
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &peerLink{conn: c}
	w.peers[addr] = p
	return p, nil
}

// dropPeer discards a peer connection after a failed exchange.
func (w *Worker) dropPeer(addr string, link *peerLink) {
	link.conn.Close()
	w.mu.Lock()
	if w.peers[addr] == link {
		delete(w.peers, addr)
	}
	w.mu.Unlock()
}
