// Package server is the multi-tenant dataframe service: it multiplexes many
// concurrent df.Session users over shared engines behind a JSON-over-HTTP
// API, adding the three things a single-user session does not need — a
// query-plan cache keyed on canonicalized plans, per-tenant memory budgets
// with admission control, and think-time scheduling that drains idle
// sessions' opportunistic work before admitting new heavy queries.
package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// PlanCache caches materialized results across sessions, keyed on the
// canonical plan fingerprint (optimizer.Fingerprint) plus the bound source
// frames' version (optimizer.SourceVersion): the same normalized plan run
// again over version-identical base frames skips execution entirely.
//
// Because the version is part of the key, rebinding a base frame (a new
// *core.DataFrame pointer) invalidates implicitly: the stale entry simply
// stops being reachable and ages out of the LRU. Eviction is by resident
// result cells against a configurable ceiling, least recently used first.
type PlanCache struct {
	mu       sync.Mutex
	maxCells int
	entries  map[string]*cacheEntry
	lru      []string // keys, least recently used first
	resident int      // cells held by cached results

	hits, misses atomic.Int64
}

type cacheEntry struct {
	result *core.DataFrame
	cells  int
}

// NewPlanCache returns a cache holding at most maxCells result cells
// (rows×cols+1 per result); <=0 means unlimited.
func NewPlanCache(maxCells int) *PlanCache {
	return &PlanCache{maxCells: maxCells, entries: make(map[string]*cacheEntry)}
}

func cacheKey(fingerprint, version string) string { return version + "\x00" + fingerprint }

// Lookup returns the cached result for the plan, nil on a miss.
func (c *PlanCache) Lookup(fingerprint, version string) *core.DataFrame {
	key := cacheKey(fingerprint, version)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.touchLocked(key)
	c.hits.Add(1)
	return e.result
}

// StoreResult records the plan's materialized result, evicting the least
// recently used results beyond the cell ceiling.
func (c *PlanCache) StoreResult(fingerprint, version string, df *core.DataFrame) {
	key := cacheKey(fingerprint, version)
	cells := df.NRows()*df.NCols() + 1
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.resident -= old.cells
	}
	c.entries[key] = &cacheEntry{result: df, cells: cells}
	c.resident += cells
	c.touchLocked(key)
	c.evictLocked(key)
}

func (c *PlanCache) touchLocked(key string) {
	for i, k := range c.lru {
		if k == key {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	c.lru = append(c.lru, key)
}

// evictLocked drops whole entries (coldest first, sparing keep) until the
// resident results fit the ceiling.
func (c *PlanCache) evictLocked(keep string) {
	if c.maxCells <= 0 {
		return
	}
	for c.resident > c.maxCells && len(c.lru) > 0 {
		victim := ""
		for _, k := range c.lru {
			if k != keep {
				victim = k
				break
			}
		}
		if victim == "" {
			return // only the just-stored entry remains; allow overshoot
		}
		c.resident -= c.entries[victim].cells
		delete(c.entries, victim)
		c.touchLocked(victim)
		c.lru = c.lru[:len(c.lru)-1]
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits          int64 `json:"hits"` // served a materialized result
	Misses        int64 `json:"misses"`
	Entries       int   `json:"entries"`
	ResidentCells int   `json:"resident_cells"`
}

// HitRate is hits over all lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats snapshots the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	entries, resident := len(c.entries), c.resident
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Entries:       entries,
		ResidentCells: resident,
	}
}
