package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/modin"
	"repro/internal/physical"
	"repro/internal/schema"
	"repro/internal/types"
)

// Worker executes shipped stage plans: it parses or decodes bands, runs the
// pre-shuffle chain through the same typed kernels the in-process engine
// uses, routes rows by key hash or the coordinator's sort bounds, merges
// buckets with the shared modin merge helpers, and serves routed pieces to
// peer workers. One process hosts one Worker; the dfworker command is a
// thin main around it.
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

// workerQuery is one query attempt's worker-side state, installed by the
// first RunBands for its id whose plan decoded (the plan never changes
// after) and kept until Release or until owner, the connection that sent
// that RunBands, closes. Sort bands wait here for the cut; group bands
// route themselves inside RunBands. Routed pieces stay for the merges.
type workerQuery struct {
	plan   *workerPlan
	owner  net.Conn
	mu     sync.Mutex
	bands  []heldBand
	pieces map[[2]int]*core.DataFrame
	cut    sync.Once
	cutErr error
}

// heldBand is a sort band's frame waiting for the cut.
type heldBand struct {
	band int
	df   *core.DataFrame
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

// serveConn handles one connection's serial request stream. The queries the
// connection installed die with it, so a coordinator lost mid-query leaves
// no state behind.
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
		for qid, q := range w.queries {
			if q.owner == conn {
				delete(w.queries, qid)
			}
		}
		w.mu.Unlock()
		conn.Close()
	}()
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return
		}
		resp, err := w.handle(conn, kind, payload)
		if err := respond(conn, resp, err); err != nil {
			return
		}
	}
}

// handle decodes and executes one request arriving on conn.
func (w *Worker) handle(conn net.Conn, kind byte, payload []byte) (any, error) {
	switch kind {
	case mPing:
		return emptyResp{OK: true}, nil
	case mRunBands:
		var req RunBandsReq
		if err := decodePayload(payload, &req); err != nil {
			return nil, err
		}
		return w.runBands(conn, &req)
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

// query returns the installed state for qid.
func (w *Worker) query(qid string) (*workerQuery, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if q := w.queries[qid]; q != nil {
		return q, nil
	}
	return nil, fmt.Errorf("cluster: unknown query %q", qid)
}

// runBands installs the query on the first request for its id, owned by
// conn, then executes the pre-shuffle stage for the requested bands in
// parallel on the worker's pool. A plan that does not decode is refused
// in-band and leaves no state behind.
func (w *Worker) runBands(conn net.Conn, req *RunBandsReq) (any, error) {
	plan, err := preparePlan(req.Plan)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	q := w.queries[req.QID]
	if q == nil {
		q = &workerQuery{
			plan:   plan,
			owner:  conn,
			pieces: make(map[[2]int]*core.DataFrame),
		}
		w.queries[req.QID] = q
	}
	w.mu.Unlock()
	results := make([]BandResult, len(req.Bands))
	err = w.pool.ForEach(len(req.Bands), func(i int) error {
		r, err := w.runBand(q, &req.Bands[i])
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
// the shipped chain, then return the block (no shuffle), route the band
// (group), or hold the frame and report its key sample (sort).
func (w *Worker) runBand(q *workerQuery, task *BandTask) (*BandResult, error) {
	plan := q.plan
	df, err := buildBand(plan.Scan, plan.keep, task)
	if err != nil {
		return nil, err
	}
	// The local fused chain, ending in its one coalescing copy at stage
	// exit, so pieces, samples and blocks are cut from compact storage.
	df, err = physical.RunKernels(plan.pre, df)
	if err != nil {
		return nil, err
	}
	res := &BandResult{}
	switch {
	case plan.group != nil:
		// Routing needs nothing global: bucket = key hash % buckets is the
		// same in every band, and each routed row or state is labelled with
		// its position under the band's global index. So this band partitions
		// right here — no round trip, and the band frame dies at band scope.
		// Compacting the pieces into owned copies is what releases df's
		// storage.
		views, err := modin.PartitionGroupBand(df, *plan.group, task.Band, plan.Buckets)
		if err != nil {
			return nil, err
		}
		q.mu.Lock()
		for b, view := range views {
			q.pieces[[2]int{task.Band, b}] = view.Compact()
		}
		q.mu.Unlock()
	case plan.sort != nil:
		res.Sort, err = modin.SampleSortKeys(df, plan.sort)
		if err != nil {
			return nil, err
		}
		q.mu.Lock()
		q.bands = append(q.bands, heldBand{task.Band, df})
		q.mu.Unlock()
	default:
		res.Block, err = EncodeFrame(nil, df)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildBand materializes one band's rows — re-parsing its range of the
// plan's scan, only the kept columns when keep is non-nil, or decoding its
// shipped block (scan is nil) — and assigns its global row labels before any
// operator runs, matching the local streaming scan exactly.
func buildBand(scan *algebra.Scan, keep []string, task *BandTask) (*core.DataFrame, error) {
	if scan == nil {
		return decodeBlock(task.Block, "band")
	}
	// The split ships byte ranges without headers; ReadBand names the
	// parsed columns from the probed header labels.
	in, err := core.OpenCSVInput(scan.Path, scan.Data)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	band, err := in.ReadBand(task.Range, scan.Options, scan.Columns, keep)
	if err != nil {
		return nil, err
	}
	return band.WithCache(schema.NewCache()), nil
}

// cutSortBands routes the query's held sort bands into bucket pieces by the
// folded range bounds, once: the first local merge or peer fetch that needs
// a piece runs the cut, and later ones wait for it and share its error.
// Sort pieces are views over their band that together select each of its
// rows once, so retaining them retains no dead rows. A group query holds no
// bands.
func (w *Worker) cutSortBands(q *workerQuery, bounds [][]types.Value) error {
	q.cut.Do(func() {
		q.mu.Lock()
		held := q.bands
		q.bands = nil
		q.mu.Unlock()
		q.cutErr = w.pool.ForEach(len(held), func(i int) error {
			views, err := modin.PartitionSortedBand(held[i].df, q.plan.sort, bounds, q.plan.Buckets)
			if err != nil {
				return err
			}
			q.mu.Lock()
			for b, piece := range views {
				q.pieces[[2]int{held[i].band, b}] = piece
			}
			q.mu.Unlock()
			return nil
		})
	})
	return q.cutErr
}

// merge folds one bucket's routed pieces — fetching remote ones from their
// holders — through the shared modin merge helpers, then applies the
// post-shuffle chain. Peer fetches must end within nine tenths of the
// coordinator's timeout for the merge, so a hung peer fails the merge as
// that peer's fetchError while the coordinator still waits for the answer.
func (w *Worker) merge(req *MergeReq) (any, error) {
	q, err := w.query(req.QID)
	if err != nil {
		return nil, err
	}
	var deadline time.Time
	if req.Timeout > 0 {
		deadline = time.Now().Add(req.Timeout - req.Timeout/10)
	}
	if err := w.cutSortBands(q, req.Bounds); err != nil {
		return nil, err
	}
	plan := q.plan
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
		df, err := w.fetchPeer(ref.Addr, &FetchReq{QID: req.QID, Band: ref.Band, Bucket: req.Bucket, Bounds: req.Bounds}, deadline)
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
	case plan.group != nil:
		// The shared merge, tagging each group with its first position for
		// the coordinator's global order restore.
		out, err = modin.MergeGroupPieces(frames, *plan.group)
	case plan.sort != nil:
		out, err = modin.MergeSortBucket(frames, plan.sort)
	default:
		return nil, fmt.Errorf("cluster: plan has no shuffle to merge")
	}
	if err != nil {
		return nil, err
	}
	if plan.group == nil {
		// Group buckets keep their rows position-aligned: the post-shuffle
		// chain could drop rows, so the coordinator applies it after the
		// restore.
		out, err = physical.RunKernels(plan.post, out)
		if err != nil {
			return nil, err
		}
	}
	out = out.Compact()
	block, err := EncodeFrame(nil, out)
	if err != nil {
		return nil, err
	}
	return &MergeResp{Block: block}, nil
}

// fetch serves one routed piece to a peer, cutting the held sort bands
// first if no merge here has yet.
func (w *Worker) fetch(req *FetchReq) (any, error) {
	q, err := w.query(req.QID)
	if err != nil {
		return nil, err
	}
	if err := w.cutSortBands(q, req.Bounds); err != nil {
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

// fetchPeer retrieves one routed piece from the worker at addr by deadline
// (zero: none). Transport failures and timeouts surface as fetchError so
// the coordinator can attribute them to the piece holder rather than this
// worker.
func (w *Worker) fetchPeer(addr string, req *FetchReq, deadline time.Time) (*core.DataFrame, error) {
	link, err := w.peerLink(addr)
	if err != nil {
		return nil, &fetchError{addr: addr, msg: err.Error()}
	}
	link.mu.Lock()
	link.conn.SetDeadline(deadline) // past due fails at once
	var resp FetchResp
	err = call(link.conn, 0, mFetch, req, &resp)
	link.mu.Unlock()
	if err != nil {
		w.dropPeer(addr, link)
		if _, ok := err.(*remoteError); ok {
			return nil, err
		}
		return nil, &fetchError{addr: addr, msg: err.Error()}
	}
	return decodeBlock(resp.Block, "piece")
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
