package experiments

import (
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/schema"
	"repro/internal/session"
	"repro/internal/types"
	"repro/internal/workload"
)

// This file holds the DESIGN.md ablation experiments E8–E10: schema
// induction deferral/caching, metadata-only transpose, and evaluation-mode
// comparisons.

// SchemaInductionResult reports E8: the cost of typing a wide untyped frame
// under three policies.
type SchemaInductionResult struct {
	Rows, Cols int
	// InduceAll types every column eagerly at ingest.
	InduceAll time.Duration
	// DeferThenFilter applies the defer-induce rewrite: filter first,
	// induce the survivors.
	DeferThenFilter time.Duration
	// InduceThenFilter induces everything, then filters.
	InduceThenFilter time.Duration
	// CachedReuse re-induces via the shared cache (second touch ~free).
	CachedReuse time.Duration
}

// RunSchemaInduction measures E8 over a rows×cols untyped frame with a
// selective filter.
func RunSchemaInduction(rows, cols int) (SchemaInductionResult, error) {
	res := SchemaInductionResult{Rows: rows, Cols: cols}
	engine := eager.New()
	pred := expr.Predicate(func(r expr.Row) bool { return r.Position()%10 == 0 })

	fresh := func() *core.DataFrame { return workload.WideUntyped(rows, cols, 99) }

	start := time.Now()
	algebra.InduceFrame(fresh())
	res.InduceAll = time.Since(start)

	// induce → filter (the unoptimized plan).
	plan := &algebra.Induce{Input: &algebra.Source{DF: fresh()}}
	full := &algebra.Selection{Input: plan, Pred: pred, Desc: "1-in-10"}
	start = time.Now()
	if _, err := engine.Execute(full); err != nil {
		return res, err
	}
	res.InduceThenFilter = time.Since(start)

	// filter → induce (the defer-induce rewrite).
	deferred := &algebra.Induce{Input: &algebra.Selection{
		Input: &algebra.Source{DF: fresh()}, Pred: pred, Desc: "1-in-10",
	}}
	start = time.Now()
	if _, err := engine.Execute(deferred); err != nil {
		return res, err
	}
	res.DeferThenFilter = time.Since(start)

	// cached reuse: same column vectors induced twice through one cache.
	cache := schema.NewCache()
	shared := fresh().WithCache(cache)
	algebra.InduceFrame(shared)
	start = time.Now()
	algebra.InduceFrame(shared.SliceRows(0, rows).WithCache(cache))
	res.CachedReuse = time.Since(start)
	return res, nil
}

// TransposeAblation reports E9: physical single-threaded transpose vs
// MODIN's parallel row-band transpose at one size, each the best of three
// runs.
type TransposeAblation struct {
	Rows, Cols int
	Physical   time.Duration
	Banded     time.Duration
	Speedup    float64
}

// RunTransposeAblation measures E9.
func RunTransposeAblation(rows, cols, bands int) (TransposeAblation, error) {
	res := TransposeAblation{Rows: rows, Cols: cols}
	df := workload.Matrix(rows, cols, 5)
	plan := &algebra.Transpose{Input: &algebra.Source{DF: df}}

	var err error
	res.Physical, _, err = timeEngine(eager.New(), plan, 3)
	if err != nil {
		return res, err
	}

	res.Banded, _, err = timeEngine(modin.New(modin.WithBands(bands)), plan, 3)
	if err != nil {
		return res, err
	}
	if res.Banded > 0 {
		res.Speedup = float64(res.Physical) / float64(res.Banded)
	}
	return res, nil
}

// EvaluationModesResult reports E10: time-to-first-inspection and
// time-to-final-result for the three Section 6 evaluation modes over the
// same scripted session.
type EvaluationModesResult struct {
	Mode            session.Mode
	TimeToFirstView time.Duration
	TimeToResult    time.Duration
	ReuseHits       int64
}

// RunEvaluationModes scripts the same interactive session under each mode:
// bind → filter → (think) → head(5) → groupby → collect. Think time is
// simulated work the user would do between statements.
func RunEvaluationModes(rows int, thinkTime time.Duration) ([]EvaluationModesResult, error) {
	df := algebra.InduceFrame(workload.Taxi(workload.DefaultTaxiOptions(rows)))
	var out []EvaluationModesResult
	for _, mode := range []session.Mode{session.Eager, session.Lazy, session.Opportunistic} {
		s := session.New(modin.New(), mode, nil)
		start := time.Now()
		base := s.Bind("taxi", df)
		filtered := s.Statement("paid", &algebra.Selection{
			Input: base.Plan(),
			Pred:  expr.ColEquals("payment_type", types.CategoryValue("card")),
			Desc:  "payment_type == card",
		})
		time.Sleep(thinkTime) // the user thinks; opportunistic mode computes
		if _, err := filtered.Head(5); err != nil {
			return nil, err
		}
		firstView := time.Since(start)

		grouped := s.Statement("by-vendor", &algebra.GroupBy{Input: filtered.Plan(), Spec: expr.GroupBySpec{
			Keys: []string{"vendor_id"},
			Aggs: []expr.AggSpec{{Col: "total_amount", Agg: expr.AggMean, As: "avg_total"}},
		}})
		if _, err := grouped.Collect(); err != nil {
			return nil, err
		}
		out = append(out, EvaluationModesResult{
			Mode:            mode,
			TimeToFirstView: firstView,
			TimeToResult:    time.Since(start),
			ReuseHits:       s.Stats.ReuseHits.Load(),
		})
	}
	return out, nil
}

// FormatAblations renders E8–E10 results.
func FormatAblations(si SchemaInductionResult, ta TransposeAblation, em []EvaluationModesResult) string {
	out := "E8 — schema induction placement\n"
	out += fmt.Sprintf("  induce-all (%dx%d):      %v\n", si.Rows, si.Cols, si.InduceAll)
	out += fmt.Sprintf("  induce→filter:           %v\n", si.InduceThenFilter)
	out += fmt.Sprintf("  filter→induce (defer):   %v\n", si.DeferThenFilter)
	out += fmt.Sprintf("  cached re-induction:     %v\n", si.CachedReuse)
	out += "E9 — transpose strategy\n"
	out += fmt.Sprintf("  physical single-thread (%dx%d): %v\n", ta.Rows, ta.Cols, ta.Physical)
	out += fmt.Sprintf("  parallel row-band transpose:    %v (%.2fx)\n", ta.Banded, ta.Speedup)
	out += "E10 — evaluation modes (same scripted session)\n"
	for _, r := range em {
		out += fmt.Sprintf("  %-14s first-view=%v result=%v reuse-hits=%d\n",
			r.Mode, r.TimeToFirstView, r.TimeToResult, r.ReuseHits)
	}
	return out
}
