package session

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
)

// Spilling connects the session's materialized-intermediate cache to the
// storage layer (Section 3.3 + the eviction discussion of Section 6.2.2):
// every resolved result lives in the session's store, and when the resident
// results hold more cells than the store's budget, the least recently used
// ones move to disk and reload transparently on reuse. The store's counters
// are the session's: its resident cells are MemoryCells, its spills and
// loads are Stats.Spills and Stats.SpillReloads.

// EnableSpillingBudget caps the session's resident results at maxCells
// cells (<=0: unlimited): beyond it, the coldest (least recently used)
// resolved results move to disk and reload transparently on reuse. The
// budget holds at once and after every statement, except that the result
// just booked or reloaded stays resident even when it alone exceeds
// maxCells, and a result with no block form (COLLECT cells) stays resident
// uncounted as a spill. The spill directory is removed by Close. This is the
// per-tenant memory-governance hook the server's admission control drives.
func (s *Session) EnableSpillingBudget(maxCells int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed()
	}
	err := s.store.SetBudget(maxCells)
	s.countLocked()
	return err
}

// MemoryCells reports the cells of the session's results held in memory.
// Tenant budget enforcement sums this across a tenant's sessions.
func (s *Session) MemoryCells() int {
	cells, _, _ := s.store.Stats()
	return cells
}

// SpillToFit spills the least recently used resolved results until at most
// maxCells cells remain resident, reporting how many results were spilled.
// In-flight results are never touched.
func (s *Session) SpillToFit(maxCells int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.store.SpillTo(maxCells)
	s.countLocked()
	return n
}

// putLocked books plan's result in the store, which spills older results
// past its budget.
func (s *Session) putLocked(plan algebra.Node, df *core.DataFrame) {
	s.stored[plan] = true
	_ = s.store.Put(spillKey(plan), df) // the result is stored even when a spill fails: the older results stay resident
	s.countLocked()
}

// loadLocked returns plan's stored result, reloading it if it was spilled;
// a reload is the newest use, so older results make room for it.
func (s *Session) loadLocked(plan algebra.Node) (*core.DataFrame, bool) {
	if !s.stored[plan] {
		return nil, false
	}
	df, err := s.store.Get(spillKey(plan))
	s.countLocked()
	return df, err == nil
}

// residentLocked returns plan's stored result only when it is in memory.
func (s *Session) residentLocked(plan algebra.Node) (*core.DataFrame, bool) {
	if !s.stored[plan] || !s.store.Resident(spillKey(plan)) {
		return nil, false
	}
	return s.loadLocked(plan)
}

// countLocked mirrors the store's spill and load totals into Stats.
func (s *Session) countLocked() {
	_, spills, loads := s.store.Stats()
	s.Stats.Spills.Store(int64(spills))
	s.Stats.SpillReloads.Store(int64(loads))
}

func spillKey(plan algebra.Node) string {
	return fmt.Sprintf("stmt-%p", plan)
}
