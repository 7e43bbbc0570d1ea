// Package storage implements MODIN's storage layer (Section 3.3): an
// in-memory partition store with spillover to persistent storage, so
// intermediate dataframes can exceed main-memory limits without failing —
// unlike the baseline, which simply errors. To maintain pandas semantics,
// spilled partitions are freed when the session ends (Close).
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/vector"
)

// ErrNotFound reports a key with no stored frame.
var ErrNotFound = errors.New("storage: frame not found")

// Store keeps dataframes under string keys, holding up to MemoryBudget
// cells in memory and spilling the least-recently-used frames to disk
// beyond that.
type Store struct {
	mu sync.Mutex

	budget   int // max resident cells; <=0 means unlimited
	dir      string
	entries  map[string]*entry
	lru      []string // keys, least recently used first
	resident int

	spills, loads int
	seq           int // monotonic spill-file counter (names never collide)
}

type entry struct {
	frame  *core.DataFrame // nil when spilled
	cells  int
	path   string // spill file, when on disk
	pinned bool   // the frame has no block form: it stays resident
}

// New returns a store with the given resident-cell budget; spill files live
// in a fresh temporary directory.
func New(budget int) (*Store, error) {
	dir, err := os.MkdirTemp("", "dfstore-*")
	if err != nil {
		return nil, fmt.Errorf("storage: create spill dir: %w", err)
	}
	return &Store{budget: budget, dir: dir, entries: make(map[string]*entry)}, nil
}

// Put stores df under key, spilling older frames if the budget is exceeded.
func (s *Store) Put(key string, df *core.DataFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.evictEntryLocked(key, old)
	}
	cells := df.NRows()*df.NCols() + 1
	s.entries[key] = &entry{frame: df, cells: cells}
	s.resident += cells
	s.touchLocked(key)
	return s.enforceBudgetLocked(key)
}

// Get retrieves the frame stored under key, loading it from disk if it was
// spilled.
func (s *Store) Get(key string) (*core.DataFrame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if e.frame == nil {
		df, err := readFrame(e.path)
		if err != nil {
			return nil, fmt.Errorf("storage: load spilled %q: %w", key, err)
		}
		e.frame = df
		s.resident += e.cells
		s.loads++
		if err := s.enforceBudgetLocked(key); err != nil {
			return nil, err
		}
	}
	s.touchLocked(key)
	return e.frame, nil
}

// Contains reports whether key is stored (resident or spilled).
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Release forces the frame under key to disk immediately, regardless of
// the budget: spill-to-free-memory callers (session budget enforcement)
// want the resident cells back now, not at the next budget check.
func (s *Store) Release(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.frame == nil || e.pinned {
		return nil
	}
	if err := s.spillLocked(e); err != nil {
		return fmt.Errorf("storage: release %q: %w", key, err)
	}
	return nil
}

// Delete removes the frame under key, including any spill file.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		s.evictEntryLocked(key, e)
		delete(s.entries, key)
	}
}

// Stats reports resident cell count and spill/load totals.
func (s *Store) Stats() (residentCells, spills, loads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resident, s.spills, s.loads
}

// Close removes every spill file; stored frames become unreachable. It
// mirrors the session-scoped lifetime of MODIN's persistent partitions.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*entry)
	s.lru = nil
	s.resident = 0
	return os.RemoveAll(s.dir)
}

func (s *Store) touchLocked(key string) {
	for i, k := range s.lru {
		if k == key {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
	s.lru = append(s.lru, key)
}

func (s *Store) evictEntryLocked(key string, e *entry) {
	if e.frame != nil {
		s.resident -= e.cells
		e.frame = nil
	}
	if e.path != "" {
		os.Remove(e.path)
		e.path = ""
	}
	for i, k := range s.lru {
		if k == key {
			s.lru = append(s.lru[:i], s.lru[i+1:]...)
			break
		}
	}
}

// enforceBudgetLocked spills least-recently-used resident frames (other
// than keep) until the budget holds.
func (s *Store) enforceBudgetLocked(keep string) error {
	if s.budget <= 0 {
		return nil
	}
	for s.resident > s.budget {
		victim := ""
		for _, k := range s.lru {
			if e := s.entries[k]; k != keep && e.frame != nil && !e.pinned {
				victim = k
				break
			}
		}
		if victim == "" {
			return nil // nothing else to spill; allow overshoot
		}
		if err := s.spillLocked(s.entries[victim]); err != nil {
			return fmt.Errorf("storage: spill %q: %w", victim, err)
		}
	}
	return nil
}

// spillLocked writes e's resident frame to disk, unless an earlier spill
// already did, and drops the resident copy. A frame with a column the block
// format cannot carry (Composite cells) is pinned instead: it stays resident
// and intact, as the overshoot enforceBudgetLocked allows, rather than being
// flattened to its rendering.
func (s *Store) spillLocked(e *entry) error {
	if e.path == "" {
		s.seq++
		// The suffix predates the block format; cmd/paperbench sizes spill
		// traffic by it.
		path := filepath.Join(s.dir, fmt.Sprintf("%x.gob", s.seq))
		if err := writeFrame(path, e.frame); err != nil {
			if errors.Is(err, vector.ErrNoWireForm) {
				e.pinned = true
				return nil
			}
			return err
		}
		e.path = path
	}
	e.frame = nil
	s.resident -= e.cells
	s.spills++
	return nil
}

// A spill file is one frame in the block format the cluster ships
// (core.EncodeFrame): typed storage byte for byte, so what comes back has the
// same vectors, null masks, labels and declared domains that went out.

func writeFrame(path string, df *core.DataFrame) error {
	buf, err := core.EncodeFrame(nil, df)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o600)
}

func readFrame(path string) (*core.DataFrame, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	df, rest, err := core.DecodeFrame(buf)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the frame", len(rest))
	}
	return df, nil
}
