// Package session implements the user-model layer of Section 6: statements
// composed incrementally into queries over a session, evaluated under one
// of three regimes — eager (pandas-style, block on every statement), lazy
// (defer until a result is requested), or opportunistic (return control
// immediately and compute in the background during think time), with
// prefix/suffix-prioritized inspection (head/tail) and reuse of
// materialized intermediates.
package session

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/exec"
	"repro/internal/storage"
)

// Mode selects the evaluation regime of Section 6.1.1.
type Mode int

const (
	// Eager evaluates every statement fully before returning control:
	// the pandas behaviour.
	Eager Mode = iota
	// Lazy defers all computation until the user requests a result.
	Lazy
	// Opportunistic returns control immediately and evaluates in the
	// background during think time; inspection requests are served from
	// completed background work or prioritized partial evaluation.
	Opportunistic
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Eager:
		return "eager"
	case Lazy:
		return "lazy"
	case Opportunistic:
		return "opportunistic"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Stats counts session activity for the evaluation-mode experiments.
type Stats struct {
	// Statements is the number of statements issued.
	Statements atomic.Int64
	// FullEvaluations counts complete plan executions.
	FullEvaluations atomic.Int64
	// PartialEvaluations counts prioritized head/tail executions that
	// avoided materializing the full result.
	PartialEvaluations atomic.Int64
	// ReuseHits counts statements served from materialized intermediates.
	ReuseHits atomic.Int64
	// BackgroundTasks counts opportunistic background executions started.
	BackgroundTasks atomic.Int64
	// Spills counts materialized results evicted to the storage layer.
	Spills atomic.Int64
	// SpillReloads counts results reloaded from the storage layer.
	SpillReloads atomic.Int64
}

// Session is one interactive analysis session: a sequence of statements
// sharing an engine, an evaluation mode, and a cache of materialized
// intermediate results.
type Session struct {
	engine algebra.Engine
	mode   Mode
	pool   *exec.Pool

	mu     sync.Mutex
	closed bool
	// pending holds in-flight and failed evaluations. A success leaves it
	// for the store before its future resolves, so a settled pending
	// evaluation is a failed one.
	pending map[algebra.Node]*exec.Future
	// stored marks the plans whose results are in store, under
	// spillKey(plan); holding the plan keeps its address, which names the
	// key, from passing to a new plan. The store's LRU budget decides which
	// results stay in memory (see spill.go).
	stored map[algebra.Node]bool
	store  *storage.Store

	// lastActive is the wall-clock time of the last statement or
	// inspection, for idle detection by think-time schedulers (unix nanos).
	lastActive atomic.Int64

	// Stats is exported for experiment harnesses.
	Stats Stats
}

// New starts a session on the given engine and mode. The pool carries
// opportunistic background work; nil uses the shared default.
func New(engine algebra.Engine, mode Mode, pool *exec.Pool) *Session {
	if pool == nil {
		pool = exec.Default
	}
	store, _ := storage.New(0) // never fails: the first spill makes the directory
	return &Session{
		engine:  engine,
		mode:    mode,
		pool:    pool,
		pending: make(map[algebra.Node]*exec.Future),
		stored:  make(map[algebra.Node]bool),
		store:   store,
	}
}

// Mode returns the session's evaluation mode.
func (s *Session) Mode() Mode { return s.mode }

// Engine returns the session's engine.
func (s *Session) Engine() algebra.Engine { return s.engine }

// Close ends the session: subsequent statements and result requests fail
// with dferrors.ErrSessionClosed, the materialized-intermediate cache is
// released, and the spill store is removed. In-flight
// background work is left to finish (its results are dropped). Closing an
// already-closed session is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	clear(s.pending)
	clear(s.stored)
	return s.store.Close()
}

// errClosed wraps the sentinel with session context.
func errClosed() error { return fmt.Errorf("session: %w", dferrors.ErrSessionClosed) }

// touch records session activity for idle detection.
func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// LastActive returns the time of the session's last statement or
// inspection (zero before any activity).
func (s *Session) LastActive() time.Time {
	ns := s.lastActive.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// PendingBackground counts in-flight (not yet resolved) materializations:
// the opportunistic DAGs a think-time scheduler drains for idle sessions.
func (s *Session) PendingBackground() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.pending {
		if !f.Ready() {
			n++
		}
	}
	return n
}

// Handle is the value a statement returns to the user: a named reference to
// an eventually-computed dataframe. Under eager evaluation it is already
// materialized; under lazy it is a plan; under opportunistic it is a future
// being computed during think time.
type Handle struct {
	s    *Session
	plan algebra.Node
	name string
}

// Bind introduces a source dataframe into the session (e.g. the result of
// read_csv).
func (s *Session) Bind(name string, df *core.DataFrame) *Handle {
	return s.Statement(name, &algebra.Source{DF: df, Name: name})
}

// Statement issues one statement: a plan extending earlier handles' plans.
// Per the session's mode it evaluates now, never, or in the background.
func (s *Session) Statement(name string, plan algebra.Node) *Handle {
	s.Stats.Statements.Add(1)
	s.touch()
	h := &Handle{s: s, plan: plan, name: name}
	switch s.mode {
	case Eager:
		fut := s.futureFor(plan, true)
		fut.Wait()
	case Opportunistic:
		s.futureFor(plan, true)
	case Lazy:
		// Nothing: computation waits for Collect/Head/Tail.
	}
	return h
}

// Plan exposes the handle's logical plan.
func (h *Handle) Plan() algebra.Node { return h.plan }

// Name returns the handle's statement name.
func (h *Handle) Name() string { return h.name }

// AsyncEngine is implemented by engines (MODIN) that can schedule a plan's
// task DAG and hand back a future without blocking. Sessions prefer it for
// background work: the statement's tasks pipeline on the engine's pool
// instead of occupying a worker for the whole evaluation, and the
// opportunistic regime hands back a genuinely unresolved handle.
type AsyncEngine interface {
	algebra.Engine
	// ExecuteAsync schedules the plan and returns a future resolving to
	// the gathered *core.DataFrame.
	ExecuteAsync(algebra.Node) *exec.Future
}

// futureFor returns the materialization future for plan, starting one if
// needed. Reuse: a plan already materialized (or in flight) — including as
// a sub-plan of this one — is never recomputed.
func (s *Session) futureFor(plan algebra.Node, background bool) *exec.Future {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return exec.Failed(errClosed())
	}
	if fut, ok := s.pending[plan]; ok {
		s.mu.Unlock()
		s.Stats.ReuseHits.Add(1)
		return fut
	}
	if df, ok := s.loadLocked(plan); ok {
		s.mu.Unlock()
		s.Stats.ReuseHits.Add(1)
		return exec.Resolved(df)
	}
	rewritten := s.substituteMaterializedLocked(plan)
	// record books a successful evaluation in the store before its future
	// resolves, so the cell budget counts it now rather than at the next
	// statement. pending is the promise this evaluation registered, nil for
	// a synchronous one; a plan forgotten or taken over by another
	// evaluation meanwhile is not booked.
	record := func(pending *exec.Future, out any, err error) {
		s.Stats.FullEvaluations.Add(1)
		if err != nil {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed && s.pending[plan] == pending {
			delete(s.pending, plan)
			s.putLocked(plan, out.(*core.DataFrame))
		}
	}
	if background {
		s.Stats.BackgroundTasks.Add(1)
		// Register a promise under the lock (so concurrent statements
		// reuse this evaluation), but schedule outside it: Pool.Submit
		// may run the task inline when its queue is full, and the task's
		// bookkeeping re-enters the session lock.
		fut, resolve := exec.NewPromise()
		s.pending[plan] = fut
		s.mu.Unlock()
		var inner *exec.Future
		if ae, ok := s.engine.(AsyncEngine); ok {
			// Deferred execution: the engine schedules the plan's task
			// DAG now; the bookkeeping chains on its future instead of
			// occupying a pool worker for the whole evaluation.
			inner = ae.ExecuteAsync(rewritten)
		} else {
			inner = s.pool.Submit(func() (any, error) {
				return s.engine.Execute(rewritten)
			})
		}
		go func() {
			out, err := inner.Wait()
			record(fut, out, err)
			resolve(out, err)
		}()
		return fut
	}
	// Synchronous evaluation runs outside the lock: record re-enters the
	// session to book the result.
	s.mu.Unlock()
	df, err := s.engine.Execute(rewritten)
	record(nil, df, err)
	if err == nil {
		return exec.Resolved(df)
	}
	fut := exec.Failed(err)
	s.mu.Lock()
	if !s.closed {
		s.pending[plan] = fut
	}
	s.mu.Unlock()
	return fut
}

// substituteMaterializedLocked rewrites the plan, replacing any sub-plan
// whose result is already materialized with a Source over that result —
// the intermediate-reuse mechanism of Section 6.2.2.
func (s *Session) substituteMaterializedLocked(plan algebra.Node) algebra.Node {
	children := plan.Children()
	if len(children) == 0 {
		return plan
	}
	newChildren := make([]algebra.Node, len(children))
	changed := false
	for i, c := range children {
		if df, ok := s.residentLocked(c); ok {
			s.Stats.ReuseHits.Add(1)
			newChildren[i] = &algebra.Source{DF: df, Name: "materialized"}
			changed = true
			continue
		}
		nc := s.substituteMaterializedLocked(c)
		if nc != c {
			changed = true
		}
		newChildren[i] = nc
	}
	if !changed {
		return plan
	}
	return algebra.WithChildren(plan, newChildren)
}

// Collect materializes the handle's full result, waiting for background
// work when it is already in flight.
func (h *Handle) Collect() (*core.DataFrame, error) {
	fut := h.s.futureFor(h.plan, false)
	v, err := fut.Wait()
	if err != nil {
		return nil, err
	}
	return v.(*core.DataFrame), nil
}

// Head returns the ordered k-prefix of the handle's result. If the full
// result is not yet materialized, only the prefix is computed (LIMIT plan),
// prioritizing what the user actually inspects (Section 6.1.2); the full
// computation continues (or will be scheduled) separately under
// opportunistic evaluation.
func (h *Handle) Head(k int) (*core.DataFrame, error) { return h.view(k) }

// Tail returns the ordered k-suffix, with the same prioritization as Head.
func (h *Handle) Tail(k int) (*core.DataFrame, error) { return h.view(-k) }

func (h *Handle) view(n int) (*core.DataFrame, error) {
	s := h.s
	s.touch()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed()
	}
	if df, ok := s.residentLocked(h.plan); ok {
		s.mu.Unlock()
		return algebra.LimitFrame(df, n), nil
	}
	if fut, ok := s.pending[h.plan]; ok && fut.Ready() {
		s.mu.Unlock()
		_, err := fut.Wait() // settled yet pending: the evaluation failed
		return nil, err
	}
	// Not (yet) materialized, or spilled: evaluate only the prefix/suffix now.
	s.Stats.PartialEvaluations.Add(1)
	rewritten := s.substituteMaterializedLocked(&algebra.Limit{Input: h.plan, N: n})
	s.mu.Unlock()
	return s.engine.Execute(rewritten)
}

// Ready reports whether the handle's full result is materialized (in memory
// or spilled) or its evaluation failed.
func (h *Handle) Ready() bool {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	fut, ok := h.s.pending[h.plan]
	return h.s.stored[h.plan] || ok && fut.Ready()
}

// Wait blocks until any background materialization of this handle finishes
// (no-op if none was scheduled).
func (h *Handle) Wait() {
	h.s.mu.Lock()
	fut, ok := h.s.pending[h.plan]
	h.s.mu.Unlock()
	if ok {
		fut.Wait()
	}
}

// ThinkTime lets the harness model user think time: it blocks until all
// in-flight background work completes, as a user pause would allow.
func (s *Session) ThinkTime() {
	s.mu.Lock()
	futs := make([]*exec.Future, 0, len(s.pending))
	for _, f := range s.pending {
		futs = append(futs, f)
	}
	s.mu.Unlock()
	for _, f := range futs {
		f.Wait()
	}
}

// Forget drops the handle's materialized result (the eviction decision of
// Section 6.2.2's materialization-management discussion), in memory or
// spilled, so nothing in the session pins the plan or the frames it
// references.
func (h *Handle) Forget() {
	s := h.s
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pending, h.plan)
	if s.stored[h.plan] {
		delete(s.stored, h.plan)
		s.store.Delete(spillKey(h.plan))
	}
}
