package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/df"
	"repro/internal/dferrors"
	"repro/internal/modin"
)

// Tenant groups a user's sessions behind one shared engine and one memory
// budget. The budget is enforced by
// admission control — a query whose estimated output cannot ever fit is
// rejected with dferrors.ErrBudgetExceeded; one that merely doesn't fit
// *now* first triggers spilling of the tenant's coldest resolved session
// blocks, then queues until capacity frees or the queue wait expires. The
// server never lets a tenant run the process out of memory.
type Tenant struct {
	name        string
	engine      *modin.Engine
	budgetCells int           // <=0: unlimited
	queueWait   time.Duration // how long an over-budget query may queue
	limiter     *tokenBucket  // request-rate bucket; nil: unlimited

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[string]*tenantSession
	reserved int // cells promised to admitted, still-running queries

	rejected, queuedTotal, spillRounds, throttled atomic.Int64
}

// allow spends one request-rate token, or reports how long until the
// tenant should retry. Memory admission (admit) is orthogonal: the rate
// bucket bounds how often a tenant may ask, the budget bounds how much the
// admitted queries may hold.
func (t *Tenant) allow() error {
	if t.limiter == nil {
		return nil
	}
	retry, ok := t.limiter.take()
	if ok {
		return nil
	}
	t.throttled.Add(1)
	return &RateLimitError{Tenant: t.name, RetryAfter: retry}
}

func newTenant(name string, budgetCells int, queueWait time.Duration) *Tenant {
	t := &Tenant{
		name:        name,
		engine:      modin.New(),
		budgetCells: budgetCells,
		queueWait:   queueWait,
		sessions:    make(map[string]*tenantSession),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// tenantSession is one live session of a tenant.
type tenantSession struct {
	id     string
	tenant *Tenant
	sess   *df.Session
}

// usageLocked sums the tenant's accountable memory: every session's
// resident materializations plus cells reserved by in-flight queries.
func (t *Tenant) usageLocked() int {
	cells := t.reserved
	for _, ts := range t.sessions {
		cells += ts.sess.MemoryCells()
	}
	return cells
}

// Usage reports the tenant's current accountable cells.
func (t *Tenant) Usage() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.usageLocked()
}

// admit reserves estimate cells against the tenant budget, returning a
// release function the caller must invoke when the query finishes. The
// admission ladder: fit now → run; never fits → reject; doesn't fit now →
// drain idle sessions' background work, spill cold blocks, then queue.
func (t *Tenant) admit(estimate int) (release func(), err error) {
	if t.budgetCells <= 0 {
		return func() {}, nil
	}
	if estimate > t.budgetCells {
		t.rejected.Add(1)
		return nil, fmt.Errorf("server: query needs ~%d cells, over tenant %q budget of %d: %w",
			estimate, t.name, t.budgetCells, dferrors.ErrBudgetExceeded)
	}

	// New heavy work yields to the opportunistic DAGs of idle sessions
	// first (think-time scheduling): their results are about to be asked
	// for, and finishing them settles the memory picture before we decide
	// whether this query fits.
	t.DrainIdle(0)

	deadline := time.Now().Add(t.queueWait)
	queued := false
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if t.usageLocked()+estimate <= t.budgetCells {
			t.reserved += estimate
			return t.releaseFunc(estimate), nil
		}
		// Over budget: push the coldest resolved blocks to disk, coldest
		// session first, until the query fits or nothing is left to spill.
		if t.spillLocked(estimate) {
			continue
		}
		if !queued {
			queued = true
			t.queuedTotal.Add(1)
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			t.rejected.Add(1)
			return nil, fmt.Errorf("server: tenant %q over budget after %v queue wait: %w",
				t.name, t.queueWait, dferrors.ErrBudgetExceeded)
		}
		t.waitLocked(remaining)
	}
}

func (t *Tenant) releaseFunc(estimate int) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			t.reserved -= estimate
			t.mu.Unlock()
			t.cond.Broadcast()
		})
	}
}

// spillLocked pushes resolved session blocks to disk, least recently active
// session first, until the pending estimate fits. Reports whether anything
// was spilled (progress ⇒ the admission loop re-checks instead of queuing).
func (t *Tenant) spillLocked(estimate int) bool {
	order := make([]*tenantSession, 0, len(t.sessions))
	for _, ts := range t.sessions {
		order = append(order, ts)
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].sess.LastActive().Before(order[j].sess.LastActive())
	})
	spilled := 0
	for _, ts := range order {
		if t.usageLocked()+estimate <= t.budgetCells {
			break
		}
		spilled += ts.sess.SpillToFit(0)
	}
	if spilled > 0 {
		t.spillRounds.Add(1)
		return true
	}
	return false
}

// waitLocked blocks on the tenant condition for at most d. A timer-driven
// broadcast bounds the wait; spurious wakeups only cost a loop iteration.
func (t *Tenant) waitLocked(d time.Duration) {
	timer := time.AfterFunc(d, t.cond.Broadcast)
	defer timer.Stop()
	t.cond.Wait()
}

// DrainIdle waits out the pending background (opportunistic) work of every
// session idle for at least idleFor. The server's scheduler loop calls this
// periodically, and admission calls it with idleFor=0 before queuing new
// heavy work.
func (t *Tenant) DrainIdle(idleFor time.Duration) {
	t.mu.Lock()
	idle := make([]*tenantSession, 0, len(t.sessions))
	for _, ts := range t.sessions {
		last := ts.sess.LastActive()
		if ts.sess.PendingBackground() > 0 && (idleFor <= 0 || time.Since(last) >= idleFor) {
			idle = append(idle, ts)
		}
	}
	t.mu.Unlock()
	for _, ts := range idle {
		ts.sess.ThinkTime()
	}
	if len(idle) > 0 {
		t.cond.Broadcast()
	}
}

// TenantStats is a point-in-time snapshot of one tenant.
type TenantStats struct {
	Sessions    int   `json:"sessions"`
	UsageCells  int   `json:"usage_cells"`
	BudgetCells int   `json:"budget_cells"`
	Rejected    int64 `json:"rejected"`
	Queued      int64 `json:"queued"`
	SpillRounds int64 `json:"spill_rounds"`
	Throttled   int64 `json:"throttled"`
}

// Stats snapshots the tenant counters.
func (t *Tenant) Stats() TenantStats {
	t.mu.Lock()
	sessions, usage := len(t.sessions), t.usageLocked()
	t.mu.Unlock()
	return TenantStats{
		Sessions:    sessions,
		UsageCells:  usage,
		BudgetCells: t.budgetCells,
		Rejected:    t.rejected.Load(),
		Queued:      t.queuedTotal.Load(),
		SpillRounds: t.spillRounds.Load(),
		Throttled:   t.throttled.Load(),
	}
}
