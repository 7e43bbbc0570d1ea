package df

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/dferrors"
	"repro/internal/session"
)

// Session exposes the interactive evaluation regimes of Section 6: eager
// (pandas-style), lazy, and opportunistic (background computation during
// think time), with head/tail-prioritized inspection and reuse of
// materialized intermediates.
//
// The session surface is deliberately minimal so a server can multiplex it
// 1:1 over a network API (see SessionAPI): statements enter through Bind
// (sources) and Query (typed builder plans), results leave through Handle's
// Collect/Head/Tail, and lifecycle is Close. Everything else — modes,
// budgets, spilling — is configuration.
type Session struct {
	inner *session.Session
}

// SessionAPI is the minimal multiplexable session surface: the subset of
// *Session a multi-tenant server exposes 1:1 over the wire. Everything in
// it is serializable — plans arrive as typed Query builders (no opaque
// closures), results leave as materialized frames. *Session implements it;
// code that should stay servable can take a SessionAPI to be sure it never
// grows a dependency on process-local state.
type SessionAPI interface {
	// Bind introduces a dataframe into the session under a name.
	Bind(name string, d *DataFrame) *Handle
	// Query issues a lazy builder plan as one statement.
	Query(name string, q *Query) (*Handle, error)
	// ThinkTime drains background work, modelling a user pause.
	ThinkTime()
	// Close ends the session; subsequent statements fail with
	// ErrSessionClosed.
	Close() error
}

var _ SessionAPI = (*Session)(nil)

// Mode selects a session's evaluation regime; use the ModeEager, ModeLazy
// and ModeOpportunistic constants.
type Mode = session.Mode

const (
	// ModeEager evaluates every statement fully before returning control:
	// the pandas behaviour.
	ModeEager = session.Eager
	// ModeLazy defers all computation until a result is requested.
	ModeLazy = session.Lazy
	// ModeOpportunistic returns control immediately and evaluates in the
	// background during think time.
	ModeOpportunistic = session.Opportunistic
)

// UnknownModeError is the sentinel error type reported for an unrecognized
// session-mode name; match the type with errors.As, or the condition with
// errors.Is(err, ErrUnknownMode).
type UnknownModeError struct {
	// Mode is the unrecognized name.
	Mode string
}

// Error renders the failure.
func (e *UnknownModeError) Error() string {
	return fmt.Sprintf("df: %v %q", dferrors.ErrUnknownMode, e.Mode)
}

// Unwrap ties the typed error to the ErrUnknownMode sentinel.
func (e *UnknownModeError) Unwrap() error { return dferrors.ErrUnknownMode }

// ParseMode resolves a mode name ("eager", "lazy", "opportunistic") to its
// typed constant, reporting *UnknownModeError otherwise. It is the only
// string entry point to modes: sessions themselves are constructed with the
// typed constants.
func ParseMode(mode string) (Mode, error) {
	switch mode {
	case "eager":
		return ModeEager, nil
	case "lazy":
		return ModeLazy, nil
	case "opportunistic":
		return ModeOpportunistic, nil
	}
	return 0, &UnknownModeError{Mode: mode}
}

// NewSession starts a session on the engine under the typed mode: one of
// ModeEager, ModeLazy, ModeOpportunistic. String input (a config file, an
// API request) goes through ParseMode first.
func NewSession(engine Engine, mode Mode) *Session {
	return &Session{inner: session.New(engine, mode, nil)}
}

// Close ends the session: subsequent statements and result requests fail
// with ErrSessionClosed, and materialized intermediates (including any
// spilled to disk) are released. Closing twice is a no-op.
func (s *Session) Close() error { return s.inner.Close() }

// EnableSpillingBudget caps the session's in-memory materialized results at
// maxCells cells (one cell per value; <=0: unlimited): beyond the budget,
// the least recently used resolved results spill to a session-owned disk
// store and reload transparently on reuse. The budget holds at once; the
// newest result and results with COLLECT cells stay resident.
func (s *Session) EnableSpillingBudget(maxCells int) error {
	return s.inner.EnableSpillingBudget(maxCells)
}

// MemoryCells reports the cells of the session's materialized results held
// in memory. Per-tenant admission control sums this across sessions.
func (s *Session) MemoryCells() int { return s.inner.MemoryCells() }

// SpillToFit spills the least recently used resolved results until at most
// maxCells cells remain resident, reporting how many results moved to disk.
func (s *Session) SpillToFit(maxCells int) int { return s.inner.SpillToFit(maxCells) }

// PendingBackground counts in-flight background materializations — the
// opportunistic DAGs a think-time scheduler drains for idle sessions.
func (s *Session) PendingBackground() int { return s.inner.PendingBackground() }

// LastActive returns the time of the session's last statement or
// inspection (zero before any activity), for idle detection.
func (s *Session) LastActive() time.Time { return s.inner.LastActive() }

// Bind introduces a dataframe into the session.
func (s *Session) Bind(name string, d *DataFrame) *Handle {
	return &Handle{s: s, inner: s.inner.Bind(name, d.frame)}
}

// Query issues a lazy builder plan as one session statement: the plan is
// run through the optimizer's rewrite rules first, then evaluated under the
// session's regime — immediately (eager), on request (lazy), or in the
// background (opportunistic). Sticky builder errors surface here.
func (s *Session) Query(name string, q *Query) (*Handle, error) {
	plan, err := q.optimized()
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, inner: s.inner.Statement(name, plan)}, nil
}

// ThinkTime models the user pausing: background work drains.
func (s *Session) ThinkTime() { s.inner.ThinkTime() }

// Stats reports session activity counters: statements issued, full and
// partial (head/tail-only) evaluations, reuse hits, and background tasks.
func (s *Session) Stats() (statements, full, partial, reuse, background int64) {
	st := &s.inner.Stats
	return st.Statements.Load(), st.FullEvaluations.Load(), st.PartialEvaluations.Load(),
		st.ReuseHits.Load(), st.BackgroundTasks.Load()
}

// Handle is a statement's result: an eventually-computed dataframe.
type Handle struct {
	s     *Session
	inner *session.Handle
}

// Lazy returns the handle's plan as a Query on the session's engine, so a
// statement can continue through the fluent builder:
//
//	next, err := s.Query("narrow", h.Lazy().Select("a", "b").Head(10))
func (h *Handle) Lazy() *Query {
	return &Query{plan: h.inner.Plan(), engine: h.s.inner.Engine()}
}

// Collect materializes the full result.
func (h *Handle) Collect() (*DataFrame, error) {
	out, err := h.inner.Collect()
	if err != nil {
		return nil, err
	}
	return FromFrame(out), nil
}

// Head returns the ordered k-prefix, computing only the prefix when the
// full result is not yet materialized (Section 6.1.2).
func (h *Handle) Head(k int) (*DataFrame, error) {
	out, err := h.inner.Head(k)
	if err != nil {
		return nil, err
	}
	return FromFrame(out), nil
}

// Tail returns the ordered k-suffix with the same prioritization.
func (h *Handle) Tail(k int) (*DataFrame, error) {
	out, err := h.inner.Tail(k)
	if err != nil {
		return nil, err
	}
	return FromFrame(out), nil
}

// Ready reports whether the full result is already materialized.
func (h *Handle) Ready() bool { return h.inner.Ready() }

// Wait blocks until background materialization (if any) completes.
func (h *Handle) Wait() { h.inner.Wait() }

// Plan returns the handle's logical plan for inspection (algebra.Render).
func (h *Handle) Plan() algebra.Node { return h.inner.Plan() }
