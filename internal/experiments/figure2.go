// Package experiments defines the paper's experiments as reusable runners
// shared by the cmd/ binaries and the root benchmark suite, so every table
// and figure is regenerated from one implementation.
package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/workload"
)

// Figure2Query is one of the four microbenchmark queries of Section 3.2.
type Figure2Query string

// The four queries of Figure 2.
const (
	QueryMap       Figure2Query = "map"
	QueryGroupByN  Figure2Query = "groupby(n)"
	QueryGroupBy1  Figure2Query = "groupby(1)"
	QueryTranspose Figure2Query = "transpose"
)

// Figure2Queries lists the queries in the paper's order.
var Figure2Queries = []Figure2Query{QueryMap, QueryGroupByN, QueryGroupBy1, QueryTranspose}

// Figure2Plan builds the query's algebra plan over the taxi frame, exactly
// as Section 3.2 describes them:
//
//	map:        check each value for null, replacing with TRUE/FALSE
//	groupby(n): group by the non-null passenger_count, count rows per group
//	groupby(1): count the non-null rows of the dataframe (one group)
//	transpose:  swap rows and columns, then apply a simple map to the rows
func Figure2Plan(q Figure2Query, df *core.DataFrame) (algebra.Node, error) {
	src := &algebra.Source{DF: df, Name: "taxi"}
	switch q {
	case QueryMap:
		return &algebra.Map{Input: src, Fn: algebra.IsNullFn()}, nil
	case QueryGroupByN:
		return &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
			Keys: []string{"passenger_count"},
			Aggs: []expr.AggSpec{{Agg: expr.AggSize, As: "trips"}},
		}}, nil
	case QueryGroupBy1:
		return &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "passenger_count", Agg: expr.AggCount, As: "non_null_rows"}},
		}}, nil
	case QueryTranspose:
		return &algebra.Map{
			Input: &algebra.Transpose{Input: src},
			Fn:    algebra.IsNullFn(),
		}, nil
	}
	return nil, fmt.Errorf("experiments: unknown figure-2 query %q", q)
}

// Figure2Result is one measured cell of Figure 2.
type Figure2Result struct {
	Query    Figure2Query
	Rows     int
	Baseline time.Duration
	Modin    time.Duration
	// BaselineDNF marks the pandas failure mode: the materialization
	// budget was exceeded (the paper's "unable to run transpose beyond 6
	// GB" / 2-hour timeout).
	BaselineDNF bool
	Speedup     float64
}

// Figure2Config parameterizes the sweep.
type Figure2Config struct {
	// RowCounts is the dataset-size sweep, standing in for the paper's
	// 20–250 GB replication sweep.
	RowCounts []int
	// Repeats takes the best of N runs per cell.
	Repeats int
	// BaselineTransposeBudget is the baseline's transpose cell budget; 0
	// disables failure injection.
	BaselineTransposeBudget int
	// Queries restricts the sweep; nil runs all four.
	Queries []Figure2Query
}

// RunFigure2 executes the sweep and returns one result per (query, size).
func RunFigure2(cfg Figure2Config) ([]Figure2Result, error) {
	queries := cfg.Queries
	if queries == nil {
		queries = Figure2Queries
	}
	if cfg.Repeats <= 0 {
		cfg.Repeats = 1
	}
	baseline := &eager.Engine{TransposeCellBudget: cfg.BaselineTransposeBudget}
	parallel := modin.New()

	var results []Figure2Result
	for _, rows := range cfg.RowCounts {
		df := workload.Taxi(workload.DefaultTaxiOptions(rows))
		// Force induction up front so both engines run over typed data,
		// as both pandas and MODIN would after ingest.
		df = algebra.InduceFrame(df)
		for _, q := range queries {
			plan, err := Figure2Plan(q, df)
			if err != nil {
				return nil, err
			}
			res := Figure2Result{Query: q, Rows: rows}
			res.Baseline, res.BaselineDNF, err = timeEngine(baseline, plan, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("baseline %s/%d: %w", q, rows, err)
			}
			res.Modin, _, err = timeEngine(parallel, plan, cfg.Repeats)
			if err != nil {
				return nil, fmt.Errorf("modin %s/%d: %w", q, rows, err)
			}
			if !res.BaselineDNF && res.Modin > 0 {
				res.Speedup = float64(res.Baseline) / float64(res.Modin)
			}
			results = append(results, res)
		}
	}
	return results, nil
}

// timeEngine returns the best-of-N wall time, reporting budget failures as
// DNF rather than errors.
func timeEngine(e algebra.Engine, plan algebra.Node, repeats int) (time.Duration, bool, error) {
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		_, err := e.Execute(plan)
		elapsed := time.Since(start)
		if err != nil {
			if isBudgetError(err) {
				return 0, true, nil
			}
			return 0, false, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
	}
	return best, false, nil
}

func isBudgetError(err error) bool {
	return errors.Is(err, eager.ErrBudgetExceeded)
}

// FormatFigure2 renders the paper-style series: one block per query, one
// row per size, with the speedup column the paper quotes (12×/19×/30×).
func FormatFigure2(results []Figure2Result) string {
	out := "Figure 2 — run times for MODIN and the pandas-profile baseline\n"
	out += fmt.Sprintf("%-12s %10s %14s %14s %9s\n", "query", "rows", "baseline", "modin", "speedup")
	for _, r := range results {
		base := r.Baseline.String()
		speed := fmt.Sprintf("%.2fx", r.Speedup)
		if r.BaselineDNF {
			base, speed = "DNF", "∞"
		}
		out += fmt.Sprintf("%-12s %10d %14s %14s %9s\n", r.Query, r.Rows, base, r.Modin, speed)
	}
	return out
}
