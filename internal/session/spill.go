package session

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// Spilling connects the session's materialized-intermediate cache to the
// storage layer (Section 3.3 + the eviction discussion of Section 6.2.2):
// when the resident results hold more cells than the configured budget, the
// least recently materialized ones move to the store (which itself spills
// to disk beyond its own cell budget) and reload transparently on reuse.

// adoptStoreLocked swaps the session's spill store. Results spilled into
// the outgoing store are reloaded first so they survive the handoff, and the
// outgoing store is closed — re-enabling spilling must not leak the previous
// store's temp directory.
func (s *Session) adoptStoreLocked(store *storage.Store) {
	if s.store != nil {
		for plan := range s.spilled {
			s.reloadLocked(plan)
		}
		s.store.Close()
	}
	s.store = store
}

// EnableSpillingBudget attaches a session-owned spill store with a
// resident-cell budget: whenever the materialized intermediates exceed
// maxCells cells, the coldest (least recently materialized) resolved
// results move to disk and reload transparently on reuse. The store is
// removed by Close. This is the per-tenant memory-governance hook the
// server's admission control drives.
func (s *Session) EnableSpillingBudget(maxCells int) error {
	store, err := storage.New(1) // store budget 1: spilled results go straight to disk
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		store.Close()
		return errClosed()
	}
	s.adoptStoreLocked(store)
	s.maxCells = maxCells
	// Re-enforce immediately: results reloaded from a previous store (or
	// already resident) spill down to the new budget now, not at the next
	// statement.
	s.maybeSpillLocked()
	return nil
}

// frameCells is the memory-accounting unit, matching the storage layer's:
// one cell per value plus one for the frame itself.
func frameCells(df *core.DataFrame) int { return df.NRows()*df.NCols() + 1 }

// residentCellsLocked sums the cells of resolved, successful
// materializations currently held in memory.
func (s *Session) residentCellsLocked() int {
	cells := 0
	for _, fut := range s.materialized {
		if !fut.Ready() {
			continue
		}
		if v, err := fut.Wait(); err == nil {
			cells += frameCells(v.(*core.DataFrame))
		}
	}
	return cells
}

// ResidentCells reports the cells of materialized results currently held in
// memory (excluding the spill store's own transient residency).
func (s *Session) ResidentCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.residentCellsLocked()
}

// MemoryCells reports the session's total accountable memory: resident
// materialized results plus whatever the spill store still holds in memory.
// Tenant budget enforcement sums this across a tenant's sessions.
func (s *Session) MemoryCells() int {
	s.mu.Lock()
	store := s.store
	cells := s.residentCellsLocked()
	s.mu.Unlock()
	if store != nil {
		resident, _, _ := store.Stats()
		cells += resident
	}
	return cells
}

// SpillToFit spills cold resolved results (oldest first) until at most
// maxCells cells remain resident, reporting how many results were spilled.
// It is a no-op without a store. Unresolved (in-flight) results are never
// touched.
func (s *Session) SpillToFit(maxCells int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.Stats.Spills.Load()
	s.spillToCellsLocked(maxCells)
	return int(s.Stats.Spills.Load() - before)
}

// maybeSpillLocked evicts the oldest completed materializations beyond the
// configured cell budget into the store.
func (s *Session) maybeSpillLocked() {
	if s.maxCells > 0 {
		s.spillToCellsLocked(s.maxCells)
	}
}

// spillToCellsLocked moves cold resolved results to the store until the
// resident cells fit maxCells.
func (s *Session) spillToCellsLocked(maxCells int) {
	if s.store == nil {
		return
	}
	resident := s.residentCellsLocked()
	for i := 0; resident > maxCells && i < len(s.residentOrder); i++ {
		victim := s.residentOrder[i]
		fut, ok := s.materialized[victim]
		if !ok || !fut.Ready() {
			continue
		}
		v, err := fut.Wait()
		if err != nil {
			continue
		}
		if s.spillPlanLocked(victim) {
			resident -= frameCells(v.(*core.DataFrame))
		}
	}
}

// spillPlanLocked moves one resolved result into the store, reporting
// whether it was spilled.
func (s *Session) spillPlanLocked(victim algebra.Node) bool {
	fut, ok := s.materialized[victim]
	if !ok || !fut.Ready() {
		return false
	}
	v, err := fut.Wait()
	if err != nil {
		return false
	}
	key := spillKey(victim)
	if err := s.store.Put(key, v.(*core.DataFrame)); err != nil {
		return false // spill failure: keep resident
	}
	if err := s.store.Release(key); err != nil || s.store.Resident(key) {
		// The write failed, or the frame has no block form and the store
		// pinned it: either way nothing was freed, so keep it resident.
		s.store.Delete(key)
		return false
	}
	delete(s.materialized, victim)
	s.spilled[victim] = key
	s.Stats.Spills.Add(1)
	return true
}

// reloadLocked brings a spilled result back as a resolved future.
func (s *Session) reloadLocked(plan algebra.Node) (*exec.Future, bool) {
	key, ok := s.spilled[plan]
	if !ok {
		return nil, false
	}
	df, err := s.store.Get(key)
	if err != nil {
		return nil, false
	}
	fut := exec.Resolved(df)
	s.materialized[plan] = fut
	delete(s.spilled, plan)
	s.residentOrder = append(s.residentOrder, plan)
	s.Stats.SpillReloads.Add(1)
	return fut, true
}

func spillKey(plan algebra.Node) string {
	return fmt.Sprintf("stmt-%p", plan)
}
