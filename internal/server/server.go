package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/optimizer"
	"repro/internal/workload"
)

// Config carries the server knobs; the zero value is usable.
type Config struct {
	// CacheMaxCells caps the plan cache's resident result cells
	// (rows×cols+1 per result). 0 picks a default; negative disables the
	// bound.
	CacheMaxCells int
	// CacheOff disables the plan cache entirely (for A/B latency runs).
	CacheOff bool
	// TenantBudgetCells is each tenant's memory ceiling in cells; <=0
	// means unlimited (no admission control).
	TenantBudgetCells int
	// QueueWait is how long an over-budget query may queue for capacity
	// before failing with ErrBudgetExceeded. 0 picks a default.
	QueueWait time.Duration
	// IdleAfter is how long a session must be quiet before the think-time
	// scheduler drains its background work. 0 picks a default.
	IdleAfter time.Duration
	// RatePerSec caps each tenant's sustained /query request rate (token
	// bucket, refilled continuously); <=0 disables rate limiting.
	RatePerSec float64
	// RateBurst is the token bucket's capacity — how many queries a tenant
	// may issue back-to-back before the sustained rate applies. <=0 picks
	// one second's worth of RatePerSec (at least 1).
	RateBurst int
	// PreviewRows is how many result rows query responses inline.
	PreviewRows int
}

func (c Config) withDefaults() Config {
	if c.CacheMaxCells == 0 {
		c.CacheMaxCells = 4 << 20
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.IdleAfter == 0 {
		c.IdleAfter = 50 * time.Millisecond
	}
	if c.PreviewRows == 0 {
		c.PreviewRows = 5
	}
	return c
}

// Server multiplexes tenant sessions over shared engines behind an HTTP
// API. Datasets are registered server-side and bound into sessions by
// reference, so fingerprint-equal plans from different sessions (or
// tenants) resolve to the same cache entries; re-registering a dataset
// produces a new frame version and implicitly invalidates them.
type Server struct {
	cfg   Config
	cache *PlanCache

	mu       sync.Mutex
	datasets map[string]*df.DataFrame
	tenants  map[string]*Tenant
	sessions map[string]*tenantSession
	nextID   atomic.Int64

	queries, uncacheable atomic.Int64

	stop chan struct{}
	done sync.WaitGroup
}

// New builds a server with the given knobs.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		cache:    NewPlanCache(cfg.CacheMaxCells),
		datasets: make(map[string]*df.DataFrame),
		tenants:  make(map[string]*Tenant),
		sessions: make(map[string]*tenantSession),
		stop:     make(chan struct{}),
	}
}

// Start launches the think-time scheduler loop.
func (s *Server) Start() {
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(s.cfg.IdleAfter)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for _, t := range s.tenantList() {
					t.DrainIdle(s.cfg.IdleAfter)
				}
			}
		}
	}()
}

// Shutdown stops the scheduler loop and closes every session.
func (s *Server) Shutdown() {
	close(s.stop)
	s.done.Wait()
	s.mu.Lock()
	sessions := make([]*tenantSession, 0, len(s.sessions))
	for _, ts := range s.sessions {
		sessions = append(sessions, ts)
	}
	s.sessions = make(map[string]*tenantSession)
	for _, t := range s.tenants {
		t.mu.Lock()
		t.sessions = make(map[string]*tenantSession)
		t.mu.Unlock()
	}
	s.mu.Unlock()
	for _, ts := range sessions {
		ts.sess.Close()
	}
}

func (s *Server) tenantList() []*Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	return out
}

// RegisterDataset installs (or replaces) a named base frame. Replacing is a
// rebind: the new frame is a new version, so every cached plan over the old
// frame silently stops matching.
func (s *Server) RegisterDataset(name string, d *df.DataFrame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = d
}

// Tenant returns (creating on first use) the named tenant.
func (s *Server) Tenant(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tenants[name]
	if !ok {
		t = newTenant(name, s.cfg.TenantBudgetCells, s.cfg.QueueWait)
		t.limiter = newTokenBucket(s.cfg.RatePerSec, s.cfg.RateBurst)
		s.tenants[name] = t
	}
	return t
}

// OpenSession creates a session for the tenant under the given mode and
// returns its id.
func (s *Server) OpenSession(tenantName string, mode df.Mode) string {
	t := s.Tenant(tenantName)
	sess := df.NewSession(t.engine, mode)
	if s.cfg.TenantBudgetCells > 0 {
		sess.EnableSpillingBudget(s.cfg.TenantBudgetCells)
	}
	id := fmt.Sprintf("%s-%d", tenantName, s.nextID.Add(1))
	ts := &tenantSession{id: id, tenant: t, sess: sess}
	s.mu.Lock()
	s.sessions[id] = ts
	s.mu.Unlock()
	t.mu.Lock()
	t.sessions[id] = ts
	t.mu.Unlock()
	return id
}

// CloseSession closes and forgets the session.
func (s *Server) CloseSession(id string) error {
	s.mu.Lock()
	ts, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: no session %q: %w", id, dferrors.ErrSessionClosed)
	}
	t := ts.tenant
	t.mu.Lock()
	delete(t.sessions, id)
	t.mu.Unlock()
	err := ts.sess.Close()
	t.cond.Broadcast() // freed memory: wake queued admissions
	return err
}

func (s *Server) session(id string) (*tenantSession, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("server: no session %q: %w", id, dferrors.ErrSessionClosed)
	}
	return ts, nil
}

func (s *Server) dataset(name string) (*df.DataFrame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("server: no dataset %q", name)
	}
	return d, nil
}

// QueryResult is the outcome of one query: its shape, how the cache served
// it, and a small row preview.
type QueryResult struct {
	Rows    int        `json:"rows"`
	Cols    []string   `json:"cols"`
	Cache   string     `json:"cache"` // "hit", "miss", "uncacheable", "off"
	Elapsed float64    `json:"elapsed_us"`
	Preview [][]string `json:"preview,omitempty"`
}

// RunQuery executes a wire query in the session, going through the plan
// cache and the tenant's admission control.
func (s *Server) RunQuery(sessionID string, spec QuerySpec) (*QueryResult, error) {
	ts, err := s.session(sessionID)
	if err != nil {
		return nil, err
	}
	if err := ts.tenant.allow(); err != nil {
		return nil, err
	}
	base, err := s.dataset(spec.Dataset)
	if err != nil {
		return nil, err
	}
	q, err := BuildQuery(base, spec.Ops)
	if err != nil {
		return nil, err
	}
	s.queries.Add(1)
	start := time.Now()

	// Canonicalize after the optimizer: rewrites (predicate pushdown,
	// projection folding, ...) normalize away plan-shape differences that
	// fingerprinting alone would treat as distinct.
	plan, _ := optimizer.Optimize(q.Plan(), optimizer.Default())
	fingerprint, sources, cacheable := optimizer.Fingerprint(plan)
	t := ts.tenant

	if cacheable && !s.cfg.CacheOff {
		version := optimizer.SourceVersion(sources)
		if cached := s.cache.Lookup(fingerprint, version); cached != nil {
			return s.result(cached, "hit", start), nil
		}
		release, err := t.admit(planEstimate(plan))
		if err != nil {
			return nil, err
		}
		defer release()
		out, err := t.engine.Execute(plan)
		if err != nil {
			return nil, err
		}
		s.cache.StoreResult(fingerprint, version, out)
		return s.result(out, "miss", start), nil
	}

	// Uncacheable (or cache off): run as an ordinary session statement —
	// the session's own materialized-intermediate reuse still applies.
	s.uncacheable.Add(1)
	release, err := t.admit(planEstimate(plan))
	if err != nil {
		return nil, err
	}
	defer release()
	h, err := ts.sess.Query(spec.Name, q)
	if err != nil {
		return nil, err
	}
	out, err := h.Collect()
	if err != nil {
		return nil, err
	}
	kind := "uncacheable"
	if s.cfg.CacheOff {
		kind = "off"
	}
	return s.result(out.Frame(), kind, start), nil
}

// planEstimate is the admission-control cost of a plan: its estimated
// output cells (at least 1, so reservations are never free).
func planEstimate(plan algebra.Node) int {
	cells := int(optimizer.EstimateNode(plan).Cells())
	if cells < 1 {
		cells = 1
	}
	return cells
}

func (s *Server) result(out *core.DataFrame, kind string, start time.Time) *QueryResult {
	res := &QueryResult{
		Rows:    out.NRows(),
		Cols:    out.ColNames(),
		Cache:   kind,
		Elapsed: float64(time.Since(start).Microseconds()),
	}
	n := s.cfg.PreviewRows
	if n > out.NRows() {
		n = out.NRows()
	}
	for i := 0; i < n; i++ {
		row := make([]string, out.NCols())
		for j := 0; j < out.NCols(); j++ {
			row[j] = out.Col(j).Value(i).String()
		}
		res.Preview = append(res.Preview, row)
	}
	return res
}

// ServerStats aggregates the server's observability counters.
type ServerStats struct {
	Queries     int64                  `json:"queries"`
	Uncacheable int64                  `json:"uncacheable"`
	Cache       CacheStats             `json:"cache"`
	Tenants     map[string]TenantStats `json:"tenants"`
}

// Stats snapshots the server.
func (s *Server) Stats() ServerStats {
	out := ServerStats{
		Queries:     s.queries.Load(),
		Uncacheable: s.uncacheable.Load(),
		Cache:       s.cache.Stats(),
		Tenants:     make(map[string]TenantStats),
	}
	s.mu.Lock()
	tenants := make(map[string]*Tenant, len(s.tenants))
	for name, t := range s.tenants {
		tenants[name] = t
	}
	s.mu.Unlock()
	for name, t := range tenants {
		out.Tenants[name] = t.Stats()
	}
	return out
}

// --- HTTP surface ---------------------------------------------------------

// Handler returns the server's HTTP API:
//
//	POST   /datasets            {"name": "taxi", "taxi_rows": 100000} | {"name": ..., "csv": "..."}
//	POST   /sessions            {"tenant": "alice", "mode": "opportunistic"} → {"id": ...}
//	DELETE /sessions/{id}
//	POST   /sessions/{id}/query QuerySpec → QueryResult
//	GET    /stats               → ServerStats
//
// Request bodies are bounded by maxBodyBytes and taxi_rows by maxTaxiRows.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/datasets", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		var req struct {
			Name     string `json:"name"`
			TaxiRows int    `json:"taxi_rows"`
			CSV      string `json:"csv"`
		}
		if !decodeBody(w, r, &req, "bad dataset request") {
			return
		}
		var d *df.DataFrame
		switch {
		case req.Name == "":
			httpError(w, http.StatusBadRequest, errors.New("bad dataset request: no name"))
			return
		case req.CSV != "":
			got, err := df.ScanCSVString(req.CSV).Collect()
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			d = got
		case req.TaxiRows > maxTaxiRows:
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad dataset request: taxi_rows %d over %d", req.TaxiRows, maxTaxiRows))
			return
		case req.TaxiRows > 0:
			d = df.FromFrame(workload.Taxi(workload.DefaultTaxiOptions(req.TaxiRows)))
		default:
			httpError(w, http.StatusBadRequest, errors.New("dataset needs csv or taxi_rows"))
			return
		}
		s.RegisterDataset(req.Name, d)
		writeJSON(w, map[string]any{"name": req.Name, "rows": d.Len(), "cols": d.Columns()})
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
			return
		}
		var req struct {
			Tenant string `json:"tenant"`
			Mode   string `json:"mode"`
		}
		if !decodeBody(w, r, &req, "bad session request") {
			return
		}
		if req.Tenant == "" {
			httpError(w, http.StatusBadRequest, errors.New("bad session request: no tenant"))
			return
		}
		if req.Mode == "" {
			req.Mode = "opportunistic"
		}
		mode, err := df.ParseMode(req.Mode)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, map[string]string{"id": s.OpenSession(req.Tenant, mode)})
	})
	mux.HandleFunc("/sessions/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
		id, verb, _ := strings.Cut(rest, "/")
		switch {
		case r.Method == http.MethodDelete && verb == "":
			if err := s.CloseSession(id); err != nil {
				httpError(w, statusFor(err), err)
				return
			}
			writeJSON(w, map[string]string{"closed": id})
		case r.Method == http.MethodPost && verb == "query":
			var spec QuerySpec
			if !decodeBody(w, r, &spec, "bad query") {
				return
			}
			res, err := s.RunQuery(id, spec)
			if err != nil {
				var rl *RateLimitError
				if errors.As(err, &rl) {
					w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(rl.RetryAfter)))
				}
				httpError(w, statusFor(err), err)
				return
			}
			writeJSON(w, res)
		default:
			httpError(w, http.StatusNotFound, fmt.Errorf("no route %s %s", r.Method, r.URL.Path))
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	return mux
}

// Request bounds: a body longer than maxBodyBytes is refused with 413, and a
// generated dataset of more than maxTaxiRows rows with 400.
const (
	maxBodyBytes = 8 << 20
	maxTaxiRows  = 5_000_000
)

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// When that fails it answers the request itself — 413 for an oversized
// body, 400 for a malformed one, the message prefixed by what — and
// reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("%s: body over %d bytes", what, maxBodyBytes))
	case err != nil:
		httpError(w, http.StatusBadRequest, fmt.Errorf("%s: %v", what, err))
	default:
		return true
	}
	return false
}

// statusFor maps the typed sentinel errors onto HTTP statuses — the errors.Is
// dispatch the sentinels exist for.
func statusFor(err error) int {
	switch {
	case errors.Is(err, dferrors.ErrBudgetExceeded),
		errors.Is(err, dferrors.ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, dferrors.ErrSessionClosed):
		return http.StatusGone
	case errors.Is(err, dferrors.ErrUnknownColumn),
		errors.Is(err, dferrors.ErrUnknownAggregate),
		errors.Is(err, dferrors.ErrUnknownJoinKind),
		errors.Is(err, dferrors.ErrUnknownMode):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
