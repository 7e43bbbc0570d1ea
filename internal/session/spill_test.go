package session

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/algebra"
	"repro/internal/eager"
	"repro/internal/expr"
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

// TestPinnedResultIsNotBookedSpilled: a result with a COLLECT aggregate has
// Composite cells and no block form, so the store keeps it in memory. The
// session must keep it resident and count no spill — SpillToFit reporting
// progress here would send a tenant's budget enforcement round after round.
func TestPinnedResultIsNotBookedSpilled(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := New(eager.New(), Lazy, nil)
	defer s.Close()
	if err := s.EnableSpillingBudget(1); err != nil {
		t.Fatal(err)
	}
	h := s.Bind("df", frame(60)).Apply("collected", func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
			Keys: []string{"tag"},
			Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}},
		}}
	})
	if _, err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	before := s.ResidentCells()
	if before <= 1 {
		t.Fatalf("resident cells = %d, want the collected result", before)
	}
	if n := s.SpillToFit(0); n != 0 {
		t.Errorf("SpillToFit reported %d spills of a pinned result", n)
	}
	if n := s.Stats.Spills.Load(); n != 0 {
		t.Errorf("Spills = %d, want 0", n)
	}
	if after := s.ResidentCells(); after != before {
		t.Errorf("resident cells %d → %d, want unchanged", before, after)
	}
}

// TestPinnedResultDoesNotBlockOtherSpills: budget enforcement steps past a
// result the store must pin and still spills the plain results behind it,
// which then reload intact.
func TestPinnedResultDoesNotBlockOtherSpills(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := New(eager.New(), Lazy, nil)
	defer s.Close()
	if err := s.EnableSpillingBudget(0); err != nil { // a store, no automatic budget
		t.Fatal(err)
	}
	base := s.Bind("df", frame(60))
	collected := base.Apply("collected", func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
			Keys: []string{"tag"},
			Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}},
		}}
	})
	limited := base.Apply("limit", func(in algebra.Node) algebra.Node {
		return &algebra.Limit{Input: in, N: 10}
	})
	pinned, err := collected.Collect()
	if err != nil {
		t.Fatal(err)
	}
	want, err := limited.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if n := s.SpillToFit(0); n != 1 {
		t.Fatalf("SpillToFit spilled %d results, want only the plain one", n)
	}
	if got, want := s.ResidentCells(), frameCells(pinned); got != want {
		t.Errorf("resident cells = %d, want the pinned result's %d", got, want)
	}
	got, err := limited.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("reloaded result differs:\n%s\nwant:\n%s", got, want)
	}
	if n := s.Stats.SpillReloads.Load(); n != 1 {
		t.Errorf("SpillReloads = %d, want 1", n)
	}
}
