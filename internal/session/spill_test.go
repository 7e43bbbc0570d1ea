package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algebra"
	"repro/internal/eager"
)

// storeDirs counts the storage layer's temp directories under the
// test-private TMPDIR.
func storeDirs(t *testing.T) int {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(os.TempDir(), "dfstore-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(dirs)
}

// TestSpillingBudgetReenableClosesOldStore is the store-lifecycle
// regression test: enabling the budget twice must not leak the first
// session-owned store's temp directory, results spilled into the outgoing
// store must survive the handoff, and Close must remove the last one.
func TestSpillingBudgetReenableClosesOldStore(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // isolate the dfstore-* count from other tests

	s := New(eager.New(), Eager, nil)
	if err := s.EnableSpillingBudget(10); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 1 {
		t.Fatalf("store dirs after first enable = %d, want 1", got)
	}

	// Push several results past the tiny cell budget so the first store
	// actually holds spilled frames when it is replaced.
	base := s.Bind("df", frame(100))
	handles := []*Handle{base}
	for i := 0; i < 3; i++ {
		n := 10 + i
		handles = append(handles, base.Apply("limit", func(in algebra.Node) algebra.Node {
			return &algebra.Limit{Input: in, N: n}
		}))
	}
	if s.Stats.Spills.Load() == 0 {
		t.Fatal("expected spills beyond the 10-cell budget")
	}

	if err := s.EnableSpillingBudget(10); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 1 {
		t.Fatalf("store dirs after re-enable = %d, want 1 (old owned store must be closed)", got)
	}

	// Results spilled into the replaced store reloaded across the handoff
	// and still collect.
	for i, h := range handles {
		out, err := h.Collect()
		if err != nil {
			t.Fatalf("handle %d after re-enable: %v", i, err)
		}
		if out.NRows() == 0 {
			t.Fatalf("handle %d empty after re-enable", i)
		}
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 0 {
		t.Fatalf("store dirs after Close = %d, want 0", got)
	}
}
