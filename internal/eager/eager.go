// Package eager is the baseline engine: a single-threaded, eagerly
// materializing executor of the dataframe algebra, standing in for pandas
// in the paper's comparisons (Section 3.2). Every operator runs to
// completion on one goroutine before the next starts, every intermediate is
// fully materialized, and TRANSPOSE is always physical — exactly the
// execution profile whose scalability the paper critiques.
//
// A configurable materialization budget reproduces pandas' failure mode on
// large transposes ("pandas is unable to run transpose beyond 6 GB"): when
// an operator would materialize more cells than the budget allows, execution
// fails with ErrBudgetExceeded instead of completing.
package eager

import (
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
)

// ErrBudgetExceeded reports that an operator needed to materialize more
// cells than the engine's budget permits; it models the baseline's
// memory-exhaustion failures.
var ErrBudgetExceeded = errors.New("eager: materialization budget exceeded")

// Engine executes algebra plans single-threaded and eagerly.
type Engine struct {
	// CellBudget bounds the number of cells any single operator may
	// materialize; zero means unlimited. TransposeCellBudget, when
	// nonzero, overrides it for TRANSPOSE (the operator with the worst
	// constant factor in row-major baselines).
	CellBudget          int
	TransposeCellBudget int
}

// New returns an unbounded baseline engine.
func New() *Engine { return &Engine{} }

// Name identifies the engine.
func (e *Engine) Name() string { return "pandas-baseline" }

// Execute evaluates the plan bottom-up on the calling goroutine through
// algebra.EvalPlan, materializing every intermediate (the baseline has no
// parallelism to exploit); the walk's check enforces the cell budget before
// a cross join or a transpose materializes.
func (e *Engine) Execute(n algebra.Node) (*core.DataFrame, error) {
	return algebra.EvalPlan(n, e.check)
}

// check gates the operators whose output can dwarf their inputs.
func (e *Engine) check(n algebra.Node, in []*core.DataFrame) error {
	switch node := n.(type) {
	case *algebra.Join:
		if node.Kind == expr.JoinCross {
			return e.checkBudget(in[0].NRows()*in[1].NRows(), in[0].NCols()+in[1].NCols(), false)
		}
	case *algebra.Transpose:
		if err := e.checkBudget(in[0].NRows(), in[0].NCols(), true); err != nil {
			return fmt.Errorf("transpose of %dx%d: %w", in[0].NRows(), in[0].NCols(), err)
		}
	}
	return nil
}

func (e *Engine) checkBudget(rows, cols int, transpose bool) error {
	budget := e.CellBudget
	if transpose && e.TransposeCellBudget != 0 {
		budget = e.TransposeCellBudget
	}
	if budget <= 0 {
		return nil
	}
	if rows*cols > budget {
		return fmt.Errorf("%w: %d cells over budget %d", ErrBudgetExceeded, rows*cols, budget)
	}
	return nil
}
