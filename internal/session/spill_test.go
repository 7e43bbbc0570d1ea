package session

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/vector"
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

// TestSpillingBudgetReenableKeepsOneStore is the store-lifecycle
// regression test: a session that never spills makes no spill directory,
// the first spill makes one, enabling the budget again keeps it (and the
// results spilled into it), and Close removes it.
func TestSpillingBudgetReenableKeepsOneStore(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // isolate the dfstore-* count from other tests

	s := New(eager.New(), Eager, nil)
	if err := s.EnableSpillingBudget(10); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 0 {
		t.Fatalf("store dirs before any spill = %d, want 0", got)
	}

	// Push several results past the tiny cell budget so the store holds
	// spilled frames when the budget is enabled again.
	base := s.Bind("df", frame(100))
	handles := []*Handle{base}
	for i := 0; i < 3; i++ {
		n := 10 + i
		handles = append(handles, extend(base, "limit", func(in algebra.Node) algebra.Node {
			return &algebra.Limit{Input: in, N: n}
		}))
	}
	if s.Stats.Spills.Load() == 0 {
		t.Fatal("expected spills beyond the 10-cell budget")
	}
	if got := storeDirs(t); got != 1 {
		t.Fatalf("store dirs after spilling = %d, want 1", got)
	}

	if err := s.EnableSpillingBudget(10); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 1 {
		t.Fatalf("store dirs after re-enable = %d, want 1", got)
	}

	// Results spilled before the re-enable still collect.
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
	h := extend(s.Bind("df", frame(60)), "collected", func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
			Keys: []string{"tag"},
			Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}},
		}}
	})
	if _, err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	before := s.MemoryCells()
	if before <= 1 {
		t.Fatalf("resident cells = %d, want the collected result", before)
	}
	if n := s.SpillToFit(0); n != 0 {
		t.Errorf("SpillToFit reported %d spills of a pinned result", n)
	}
	if n := s.Stats.Spills.Load(); n != 0 {
		t.Errorf("Spills = %d, want 0", n)
	}
	if after := s.MemoryCells(); after != before {
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
	collected := extend(base, "collected", func(in algebra.Node) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
			Keys: []string{"tag"},
			Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}},
		}}
	})
	limited := extend(base, "limit", func(in algebra.Node) algebra.Node {
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
	if got, want := s.MemoryCells(), pinned.NRows()*pinned.NCols()+1; got != want {
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

// limitTo extends h with a LIMIT of n rows.
func limitTo(h *Handle, n int) *Handle {
	return extend(h, "head", func(in algebra.Node) algebra.Node { return &algebra.Limit{Input: in, N: n} })
}

// TestBudgetHoldsAfterEveryStatement: the cell budget holds when each
// statement returns, not one statement later, and a reloaded result is
// counted once in MemoryCells, which tenant admission sums.
func TestBudgetHoldsAfterEveryStatement(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := New(eager.New(), Eager, nil)
	defer s.Close()
	const budget = 350
	if err := s.EnableSpillingBudget(budget); err != nil {
		t.Fatal(err)
	}
	base := s.Bind("df", frame(100)) // 301 cells: fits alone
	for _, n := range []int{40, 20} {
		limitTo(base, n)
		if got := s.MemoryCells(); got > budget {
			t.Errorf("after LIMIT(%d): %d resident cells over a %d-cell budget", n, got, budget)
		}
	}
	if s.Stats.Spills.Load() == 0 {
		t.Fatal("expected the base frame to spill")
	}
	if _, err := base.Collect(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.SpillReloads.Load() != 1 {
		t.Fatalf("SpillReloads = %d, want the base frame's one", s.Stats.SpillReloads.Load())
	}
	if got, want := s.MemoryCells(), 301; got != want {
		t.Errorf("after the reload: MemoryCells = %d, want the base frame's %d alone", got, want)
	}
}

// TestForgottenResultsLeaveTheStore: a forgotten plan is no longer stored,
// in memory or on disk, so the session pins no plan (and no frame a plan
// references) it has dropped; reuse keeps the store to one entry per plan,
// and Close leaves no spill directory behind.
func TestForgottenResultsLeaveTheStore(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	s := New(eager.New(), Eager, nil)
	if err := s.EnableSpillingBudget(350); err != nil {
		t.Fatal(err)
	}
	base := s.Bind("df", frame(100))
	a, b := limitTo(base, 40), limitTo(base, 20)
	for i := 0; i < 3; i++ {
		for _, h := range []*Handle{base, a, b} {
			if _, err := h.Collect(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.Stats.SpillReloads.Load() == 0 {
		t.Fatal("expected reloads")
	}
	a.Forget()
	b.Forget()
	for _, h := range []*Handle{a, b} {
		if s.stored[h.plan] || s.store.Contains(spillKey(h.plan)) {
			t.Errorf("forgotten %s is still stored", h.plan.Describe())
		}
	}
	if len(s.stored) != 1 || !s.store.Contains(spillKey(base.plan)) {
		t.Errorf("%d plans stored, want the base frame alone", len(s.stored))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := storeDirs(t); got != 0 {
		t.Fatalf("store dirs after Close = %d, want 0", got)
	}
}

// TestSpillingMatchesAnUnbudgetedTwin runs seeded random sequences of
// statements, Collect/Head/Tail, Forget, SpillToFit, budget re-enables, a
// COLLECT (pinned) result and Close against a budgeted session, replaying
// each on an eager twin session with no budget. Every result must equal the
// twin's; after every step the resident results must fit the budget, but
// for the newest result and pinned ones; MemoryCells must be the cells of
// the stored results the store holds in memory; and Close must leave no
// spill directory behind.
func TestSpillingMatchesAnUnbudgetedTwin(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for seed := int64(0); seed < 30; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runTwinSequence(t, seed) })
	}
	if got := storeDirs(t); got != 0 {
		t.Errorf("store dirs after every session closed = %d, want 0", got)
	}
}

func runTwinSequence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mode := []Mode{Eager, Lazy, Opportunistic}[seed%3]
	var engine algebra.Engine = eager.New()
	if mode == Opportunistic && seed%2 == 0 {
		engine = modin.New(modin.WithBands(2))
	}
	s, twin := New(engine, mode, nil), New(eager.New(), Eager, nil)
	defer s.Close()
	defer twin.Close()
	budget := rng.Intn(500)
	if err := s.EnableSpillingBudget(budget); err != nil {
		t.Fatal(err)
	}

	var hs, twins []*Handle
	shaped := []bool{} // the result has the id/tag/val columns
	var newest algebra.Node
	want := func(i int) *core.DataFrame {
		df, err := twins[i].Collect()
		if err != nil {
			t.Fatal(err)
		}
		return df
	}
	check := func(step string) {
		t.Helper()
		s.mu.Lock()
		defer s.mu.Unlock()
		resident, over := 0, 0
		for i, h := range hs {
			if !s.stored[h.plan] || !s.store.Resident(spillKey(h.plan)) {
				continue
			}
			df := want(i)
			cells := df.NRows()*df.NCols() + 1
			resident += cells
			if _, err := core.EncodeFrame(nil, df); h.plan != newest && !errors.Is(err, vector.ErrNoWireForm) {
				over += cells
			}
		}
		if got := s.MemoryCells(); got != resident {
			t.Fatalf("%s: MemoryCells = %d, want the %d cells of the resident results", step, got, resident)
		}
		if budget > 0 && over > budget {
			t.Fatalf("%s: %d cells resident beside the newest and pinned results, over a %d-cell budget", step, over, budget)
		}
	}
	issue := func(name string, build func(algebra.Node) algebra.Node, parent int, keepsShape bool) {
		hs = append(hs, s.Statement(name, build(hs[parent].plan)))
		twins = append(twins, twin.Statement(name, build(twins[parent].plan)))
		shaped = append(shaped, keepsShape)
		if mode != Lazy {
			s.ThinkTime()
			newest = hs[len(hs)-1].plan
		}
	}
	bind := func() {
		df := frame(10 + rng.Intn(120))
		hs = append(hs, s.Bind("df", df))
		twins = append(twins, twin.Bind("df", df))
		shaped = append(shaped, true)
		if mode != Lazy {
			s.ThinkTime()
			newest = hs[len(hs)-1].plan
		}
	}

	bind()
	for step := 0; step < 40; step++ {
		i := rng.Intn(len(hs))
		var op string
		switch r := rng.Intn(12); {
		case r == 0:
			op = "bind"
			bind()
		case r <= 4:
			n := 1 + rng.Intn(60)
			kind := rng.Intn(5)
			if !shaped[i] {
				kind = 0
			}
			op = fmt.Sprintf("statement %d over %d", kind, i)
			switch kind {
			case 0:
				issue("limit", func(in algebra.Node) algebra.Node { return &algebra.Limit{Input: in, N: n} }, i, shaped[i])
			case 1:
				issue("filter", filterPlan, i, true)
			case 2:
				issue("sort", func(in algebra.Node) algebra.Node {
					return &algebra.Sort{Input: in, Order: expr.SortOrder{{Col: "val", Desc: true}}}
				}, i, true)
			case 3:
				issue("sum", func(in algebra.Node) algebra.Node {
					return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
						Keys: []string{"tag"},
						Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggSum, As: "total"}},
					}}
				}, i, false)
			case 4:
				issue("collected", func(in algebra.Node) algebra.Node {
					return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{
						Keys: []string{"tag"},
						Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}},
					}}
				}, i, false)
			}
		case r <= 7:
			op = fmt.Sprintf("collect %d", i)
			got, err := hs[i].Collect()
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if !sameResult(got, want(i)) {
				t.Fatalf("%s:\n%s\nwant:\n%s", op, got, want(i))
			}
			newest = hs[i].plan
		case r == 8:
			k := 1 + rng.Intn(8)
			op = fmt.Sprintf("head/tail %d of %d", k, i)
			for _, v := range []func(*Handle) (*core.DataFrame, error){
				func(h *Handle) (*core.DataFrame, error) { return h.Head(k) },
				func(h *Handle) (*core.DataFrame, error) { return h.Tail(k) },
			} {
				got, err := v(hs[i])
				if err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				wantView, err := v(twins[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(got, wantView) {
					t.Fatalf("%s:\n%s\nwant:\n%s", op, got, wantView)
				}
			}
		case r == 9:
			op = fmt.Sprintf("forget %d", i)
			hs[i].Forget()
		case r == 10:
			op = "spill to fit"
			s.SpillToFit(rng.Intn(200))
		default:
			budget = rng.Intn(500)
			op = fmt.Sprintf("budget %d", budget)
			if err := s.EnableSpillingBudget(budget); err != nil {
				t.Fatal(err)
			}
		}
		check(op)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := hs[0].Collect(); !errors.Is(err, dferrors.ErrSessionClosed) {
		t.Errorf("Collect after Close: %v, want ErrSessionClosed", err)
	}
	if got := s.MemoryCells(); got != 0 {
		t.Errorf("MemoryCells after Close = %d, want 0", got)
	}
}

// sameResult is Equal, except that Composite cells (COLLECT results), whose
// own equality is identity, compare by the frames they hold.
func sameResult(a, b *core.DataFrame) bool {
	if a.Equal(b) {
		return true
	}
	if a.NRows() != b.NRows() || !reflect.DeepEqual(a.Domains(), b.Domains()) ||
		!reflect.DeepEqual(a.ColLabels(), b.ColLabels()) || !vector.Equal(a.RowLabels(), b.RowLabels()) {
		return false
	}
	for j := 0; j < a.NCols(); j++ {
		for i := 0; i < a.NRows(); i++ {
			va, vb := a.Value(i, j), b.Value(i, j)
			fa, ok := va.CompositePayload().(*core.DataFrame)
			if !ok {
				if !va.Equal(vb) {
					return false
				}
				continue
			}
			if fb, ok := vb.CompositePayload().(*core.DataFrame); !ok || !fa.Equal(fb) {
				return false
			}
		}
	}
	return true
}
