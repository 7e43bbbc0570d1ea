package df

import (
	"errors"
	"testing"

	"repro/internal/algebra"
)

// engStatement binds the sample and issues one filter statement over it.
func engStatement(t *testing.T, s *Session) *Handle {
	t.Helper()
	h, err := s.Query("eng", s.Bind("people", sample(t)).Lazy().Where(Eq("dept", Str("eng"))))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSessionModes(t *testing.T) {
	for _, name := range []string{"eager", "lazy", "opportunistic"} {
		t.Run(name, func(t *testing.T) {
			mode, err := ParseMode(name)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSession(NewModinEngine(), mode)
			h := engStatement(t, s)
			out, err := h.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != 2 {
				t.Errorf("rows = %d", out.Len())
			}
			head, err := h.Head(1)
			if err != nil || head.Len() != 1 {
				t.Errorf("head: %v", err)
			}
			tail, err := h.Tail(1)
			if err != nil || tail.Len() != 1 {
				t.Errorf("tail: %v", err)
			}
			v, _ := tail.Iloc(0, 0)
			if v.Str() != "cat" {
				t.Errorf("tail row = %v", v)
			}
		})
	}
	if _, err := ParseMode("psychic"); !errors.Is(err, ErrUnknownMode) {
		t.Errorf("unknown mode should report ErrUnknownMode, got %v", err)
	}
}

func TestSessionStatsAndPlan(t *testing.T) {
	s := NewSession(NewBaselineEngine(), ModeLazy)
	h := engStatement(t, s)
	statements, full, partial, _, background := s.Stats()
	if statements != 2 || full != 0 || background != 0 {
		t.Errorf("lazy pre-collect stats: stmts=%d full=%d bg=%d", statements, full, background)
	}
	if _, err := h.Head(1); err != nil {
		t.Fatal(err)
	}
	_, _, partial, _, _ = s.Stats()
	if partial != 1 {
		t.Errorf("head should count as partial eval, got %d", partial)
	}
	if algebra.CountNodes(h.Plan()) != 2 {
		t.Error("plan should have two nodes")
	}
	if h.Ready() {
		t.Error("lazy handle should not be materialized before collect")
	}
	if _, err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if !h.Ready() {
		t.Error("collect should materialize")
	}
	h.Wait() // no-op once ready
	s.ThinkTime()
}

func TestSessionClose(t *testing.T) {
	s := NewSession(NewModinEngine(), ModeLazy)
	h := s.Bind("people", sample(t))
	if _, err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close should be a no-op, got %v", err)
	}
	h2 := s.Bind("late", sample(t))
	if _, err := h2.Collect(); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("statement after close should report ErrSessionClosed, got %v", err)
	}
	if err := s.EnableSpillingBudget(100); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("EnableSpillingBudget after close should report ErrSessionClosed, got %v", err)
	}
}

func TestSessionSpillBudget(t *testing.T) {
	s := NewSession(NewModinEngine(), ModeEager)
	if err := s.EnableSpillingBudget(1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Bind("people", sample(t))
	if _, err := h.Collect(); err != nil {
		t.Fatal(err)
	}
	h2 := s.Bind("more", sample(t))
	if _, err := h2.Collect(); err != nil {
		t.Fatal(err)
	}
	// With a one-cell ceiling every resolved result beyond the newest must
	// have spilled, yet both stay readable through transparent reload.
	if got, err := h.Collect(); err != nil || got.Len() != sample(t).Len() {
		t.Fatalf("reload after spill: %v (len %d)", err, got.Len())
	}
	if cells := s.MemoryCells(); cells <= 0 {
		t.Errorf("MemoryCells = %d, want > 0", cells)
	}
	if s.LastActive().IsZero() {
		t.Error("LastActive should be set after statements")
	}
}
