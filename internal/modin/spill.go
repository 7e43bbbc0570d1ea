package modin

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/storage"
)

// Spill-aware shuffle merges: when an engine runs with a shuffle spill
// budget (WithShuffleSpillBudget), routed-but-not-yet-merged shuffle pieces
// are accounted against a resident-cell ceiling, and pieces past the
// ceiling are written through internal/storage and re-read lazily when
// their merge runs. Combined with Shuffle.ReleaseBands (the input band's
// block future is dropped once the band is routed), a GROUPBY/SORT/JOIN
// over a streamed input degrades to disk instead of accumulating the whole
// input in memory between the partition and merge phases.

// spillable lets composite shuffle pieces (joinPiece) expose the dataframe
// that should be accounted and spilled while their sidecar state (ordinal
// slices) stays resident.
type spillable interface {
	spillFrame() *core.DataFrame
	withSpillFrame(df *core.DataFrame) any
}

func (p joinPiece) spillFrame() *core.DataFrame { return p.df }
func (p joinPiece) withSpillFrame(df *core.DataFrame) any {
	p.df = df
	return p
}

// residentPiece is a routed piece admitted under the budget; cells is its
// accounted size, returned to the budget when the merge consumes it.
type residentPiece struct {
	df    *core.DataFrame
	cells int
}

// spilledPiece is a routed piece written through the spill store; the merge
// re-reads (and deletes) it by key.
type spilledPiece struct {
	key   string
	cells int
}

// wrappedPiece carries a spillable composite piece whose frame was admitted
// separately.
type wrappedPiece struct {
	orig  spillable
	inner any
}

// spillShuffle interposes on a partitioned shuffle's piece flow when the
// engine has a spill budget: Partition output pieces are compacted (so they
// stop pinning the input band's storage), admitted against the budget or
// spilled to disk, and Merge input pieces are resolved back — from memory
// or from the store — before the wrapped merge runs. ReleaseBands is set so
// a transient (streamed) input band is dropped the moment it is routed.
//
// Anchored shuffles (Partition == nil) pass through: their merges consume
// input bands directly, so there is no routed-piece backlog to bound.
func (e *Engine) spillShuffle(sh *physical.Shuffle) *physical.Shuffle {
	if e.spillBudget <= 0 || sh.Partition == nil {
		return sh
	}
	w := *sh
	w.ReleaseBands = true
	part, merge := sh.Partition, sh.Merge
	w.Partition = func(band int, df *core.DataFrame, plan any) ([]any, error) {
		pieces, err := part(band, df, plan)
		if err != nil {
			return nil, err
		}
		for i, p := range pieces {
			ap, err := e.admitPiece(p)
			if err != nil {
				return nil, err
			}
			pieces[i] = ap
		}
		return pieces, nil
	}
	// Band-routed (keyed) merges fold their pieces sequentially in band
	// order, so they take deferred handles and resolve each piece at
	// consumption — at most one spilled piece per merge worker is resident,
	// which is what keeps a pass-through groupby's merge phase bounded.
	// Order-sensitive merges (sort's k-way run merge) need every run at
	// once, so they keep the eager resolve.
	streamMerge := sh.BandRouting
	w.Merge = func(bucket int, pieces []any, plan any) (*core.DataFrame, error) {
		resolved := make([]any, len(pieces))
		for i, p := range pieces {
			if streamMerge {
				resolved[i] = lazyPiece{e: e, inner: p}
				continue
			}
			rp, err := e.resolvePiece(p)
			if err != nil {
				return nil, err
			}
			resolved[i] = rp
		}
		return merge(bucket, resolved, plan)
	}
	return &w
}

// lazyPiece defers one admitted piece's resolution to the merge's
// consumption point (modin.PieceSource).
type lazyPiece struct {
	e     *Engine
	inner any
}

func (p lazyPiece) Frame() (*core.DataFrame, error) {
	v, err := p.e.resolvePiece(p.inner)
	if err != nil {
		return nil, err
	}
	df, ok := v.(*core.DataFrame)
	if !ok {
		return nil, fmt.Errorf("modin: deferred piece resolved to %T, want frame", v)
	}
	return df, nil
}

// admitPiece routes one partition-phase piece through the budget. Frames
// (and spillable composites' frames) are compacted first: view pieces over
// a released band must own their cells. Unknown piece types pass through
// untouched.
func (e *Engine) admitPiece(p any) (any, error) {
	switch v := p.(type) {
	case *core.DataFrame:
		return e.admitFrame(v)
	case spillable:
		inner, err := e.admitFrame(v.spillFrame())
		if err != nil {
			return nil, err
		}
		return wrappedPiece{orig: v, inner: inner}, nil
	default:
		return p, nil
	}
}

// resolvePiece is admitPiece's inverse, run by the merge phase.
func (e *Engine) resolvePiece(p any) (any, error) {
	switch v := p.(type) {
	case residentPiece:
		e.spillMu.Lock()
		e.spillResident -= v.cells
		e.spillMu.Unlock()
		return v.df, nil
	case spilledPiece:
		e.spillMu.Lock()
		store := e.spillStore
		e.spillMu.Unlock()
		if store == nil {
			return nil, fmt.Errorf("modin: spilled piece %s has no store", v.key)
		}
		df, err := store.Get(v.key)
		if err != nil {
			return nil, err
		}
		store.Delete(v.key)
		return df, nil
	case wrappedPiece:
		df, err := e.resolvePiece(v.inner)
		if err != nil {
			return nil, err
		}
		return v.orig.withSpillFrame(df.(*core.DataFrame)), nil
	default:
		return p, nil
	}
}

// admitFrame detaches df from its source band's storage and either admits
// it under the resident budget or spills it to the engine's store. Detach
// (not Compact) matters for resident pieces: a sort shuffle's routed runs
// are Slice windows into the sorted band, and Compact leaves slices
// aliasing the band's arrays — the whole band would stay pinned until the
// last bucket merged. The spill write copies the piece's typed storage into
// a block (core.EncodeFrame) and the store drops the frame once the block is
// on disk, which severs the ties on that path by itself; Compact there only
// flattens selection views so the block is cut from the piece's own rows.
func (e *Engine) admitFrame(df *core.DataFrame) (any, error) {
	cells := df.NRows()*df.NCols() + 1
	e.spillMu.Lock()
	if e.spillResident+cells <= e.spillBudget {
		e.spillResident += cells
		e.spillMu.Unlock()
		return residentPiece{df: df.Detach(), cells: cells}, nil
	}
	store, err := e.spillStoreLocked()
	if err != nil {
		e.spillMu.Unlock()
		return nil, err
	}
	e.spillSeq++
	key := fmt.Sprintf("shuffle-%d", e.spillSeq)
	e.spillMu.Unlock()
	if err := store.Put(key, df.Compact()); err != nil {
		return nil, err
	}
	if err := store.Release(key); err != nil {
		return nil, err
	}
	e.stats.SpilledPieces.Add(1)
	return spilledPiece{key: key, cells: cells}, nil
}

// spillStoreLocked lazily opens the engine's spill store. Caller holds
// spillMu.
func (e *Engine) spillStoreLocked() (*storage.Store, error) {
	if e.spillStore != nil {
		return e.spillStore, nil
	}
	// Budget 1: the store itself keeps nothing resident — residency is
	// accounted here, the store only owns the disk files.
	st, err := storage.New(1)
	if err != nil {
		return nil, err
	}
	e.spillStore = st
	return st, nil
}

// trackSpillRun records a run's cancellation group while the spill budget
// is on, so ReleaseSpill can wait out the run's stragglers.
func (e *Engine) trackSpillRun(sched *physical.Scheduler) {
	if e.spillBudget <= 0 {
		return
	}
	e.spillMu.Lock()
	e.spillGroups = append(e.spillGroups, sched.Group())
	e.spillMu.Unlock()
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
	e.spillMu.Lock()
	groups := e.spillGroups
	e.spillGroups = nil
	e.spillMu.Unlock()
	for _, g := range groups {
		g.Quiesce()
	}
	e.spillMu.Lock()
	st := e.spillStore
	e.spillStore = nil
	e.spillResident = 0
	e.spillMu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}
