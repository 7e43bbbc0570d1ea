package modin

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
)

// spillLedger is the engine's physical.PieceStore: when an engine runs with
// a shuffle spill budget (WithShuffleSpillBudget), the scheduler admits every
// routed-but-not-yet-merged shuffle piece through it. Pieces are accounted
// against a resident-cell ceiling, and pieces past the ceiling are written
// through internal/storage and re-read when their merge takes them. Combined
// with the scheduler's band release (a transient input band's block future
// is dropped once the band is routed), a GROUPBY/SORT/JOIN over a streamed
// input degrades to disk instead of accumulating the whole input in memory
// between the partition and merge phases.
type spillLedger struct {
	budget  int
	spilled *atomic.Int64 // the engine's Stats.SpilledPieces

	mu       sync.Mutex
	store    *storage.Store // lazily created, freed by ReleaseSpill
	resident int
	seq      int64
	// groups tracks the cancellation groups of runs scheduled while the
	// budget is on, so ReleaseSpill can quiesce their straggler tasks before
	// closing the store (a cancelled run's partition tasks would otherwise
	// lazily re-create it and leak their spill files).
	groups []*exec.Group
}

// Admit detaches df from its source band's storage and either admits it
// under the resident budget or spills it to the store; the returned take is
// its inverse, run by the merge that consumes the piece — a resident piece
// returns its cells to the budget, a spilled one is read back and deleted.
// Detach (not Compact) matters for resident pieces: a sort shuffle's routed
// runs are Slice windows into the sorted band, and Compact leaves slices
// aliasing the band's arrays — the whole band would stay pinned until the
// last bucket merged. The spill write copies the piece's typed storage into
// a block (core.EncodeFrame) and the store drops the frame once the block is
// on disk, which severs the ties on that path by itself; Compact there only
// flattens selection views so the block is cut from the piece's own rows.
func (l *spillLedger) Admit(df *core.DataFrame) (func() (*core.DataFrame, error), error) {
	cells := df.NRows()*df.NCols() + 1
	l.mu.Lock()
	if l.resident+cells <= l.budget {
		l.resident += cells
		l.mu.Unlock()
		df = df.Detach()
		return func() (*core.DataFrame, error) {
			l.mu.Lock()
			l.resident -= cells
			l.mu.Unlock()
			return df, nil
		}, nil
	}
	if l.store == nil {
		// Budget 1: the store itself keeps nothing resident — residency is
		// accounted here, the store only owns the disk files.
		st, err := storage.New(1)
		if err != nil {
			l.mu.Unlock()
			return nil, err
		}
		l.store = st
	}
	store := l.store
	l.seq++
	key := fmt.Sprintf("shuffle-%d", l.seq)
	l.mu.Unlock()
	if err := store.Put(key, df.Compact()); err != nil {
		return nil, err
	}
	if err := store.Release(key); err != nil {
		return nil, err
	}
	l.spilled.Add(1)
	return func() (*core.DataFrame, error) {
		df, err := store.Get(key)
		if err != nil {
			return nil, err
		}
		store.Delete(key)
		return df, nil
	}, nil
}

// ReleaseSpill closes the engine's spill store, removing every spill file.
// The store is re-created lazily if the engine runs again, so callers can
// release after each collected query. Safe to call when spilling never
// engaged or is disabled.
//
// A cancelled run (a merge failed mid-shuffle, say) may still have
// partition tasks on workers when its caller observes the error and
// releases: each would admit its pieces, lazily re-creating the store and
// stranding its spill files on disk forever. ReleaseSpill therefore
// quiesces every tracked run's task group first — stragglers drain, THEN
// the store (including anything they just wrote) closes and unlinks.
func (e *Engine) ReleaseSpill() error {
	l := e.spill
	if l == nil {
		return nil
	}
	l.mu.Lock()
	groups := l.groups
	l.groups = nil
	l.mu.Unlock()
	for _, g := range groups {
		g.Quiesce()
	}
	l.mu.Lock()
	st := l.store
	l.store = nil
	l.resident = 0
	l.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}
