package modin

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/vector"
)

// DescribePhysical renders the engine's physical strategy decisions for a
// logical plan, one line per repartition point in execution (post) order:
// which join runs key-shuffled vs broadcast and on what estimates, and
// which groupby can take the dictionary code path. The df layer appends
// this to Query.Explain when the session engine is MODIN.
func (e *Engine) DescribePhysical(n algebra.Node) string {
	var b strings.Builder
	if !e.statsOn {
		b.WriteString("statistics: off (zero-stats fallbacks: broadcast joins, even shuffle cuts)\n")
	}
	uses := make(map[algebra.Node]int)
	countUses(n, uses)
	e.describeNode(n, uses, &b)
	if b.Len() == 0 {
		b.WriteString("(no repartition points)\n")
	}
	return b.String()
}

func (e *Engine) describeNode(n algebra.Node, uses map[algebra.Node]int, b *strings.Builder) {
	var keep []string
	if p, ok := n.(*algebra.Projection); ok {
		if scan := prunedScan(p, uses); scan != nil {
			n, keep = scan, p.Cols
		}
	}
	for _, c := range n.Children() {
		e.describeNode(c, uses, b)
	}
	switch node := n.(type) {
	case *algebra.Join:
		if node.Kind != expr.JoinInner && node.Kind != expr.JoinLeft {
			fmt.Fprintf(b, "JOIN strategy=gather-exchange\n")
			return
		}
		choice := e.chooseJoinStrategy(node)
		strategy := "broadcast"
		if choice.shuffled {
			strategy = "shuffle"
		}
		fmt.Fprintf(b, "JOIN strategy=%s (build≈%s rows", strategy, approx(choice.buildRows))
		if choice.buildNDV > 0 {
			fmt.Fprintf(b, ", ndv≈%s", approx(choice.buildNDV))
		}
		b.WriteString(")\n")
	case *algebra.GroupBy:
		est := optimizer.Estimator{Stats: e}
		if algebra.DictGroupSupported(node.Spec) && e.dictKeyed(node.Input, node.Spec.Keys[0]) {
			fmt.Fprintf(b, "GROUPBY strategy=dict-codes (groups≈%s)\n", approx(est.EstimateNode(node).Rows))
			return
		}
		fmt.Fprintf(b, "GROUPBY strategy=hash-shuffle (groups≈%s)\n", approx(est.EstimateNode(node).Rows))
	case *algebra.Scan:
		rows := node.BandRows
		if rows <= 0 {
			rows = physical.DefaultStreamBandRows
		}
		fmt.Fprintf(b, "SCAN strategy=stream (band rows=%d", rows)
		if node.SizeHint > 0 {
			fmt.Fprintf(b, ", ≈%s bytes", approx(float64(node.SizeHint)))
		}
		if keep != nil {
			fmt.Fprintf(b, ", keep %d/%d cols", len(keep), len(node.Columns))
		}
		b.WriteString(")\n")
	}
}

// dictKeyed reports whether the groupby key column reaches the plan from a
// base frame with dictionary-coded storage — the precondition for the
// typed code-indexed aggregation path.
func (e *Engine) dictKeyed(n algebra.Node, key string) bool {
	for {
		switch node := n.(type) {
		case *algebra.Source:
			j := node.DF.ColIndex(key)
			if j < 0 {
				return false
			}
			_, _, _, _, ok := vector.DictData(node.DF.TypedCol(j))
			return ok
		case *algebra.Selection:
			n = node.Input
		case *algebra.Sort:
			n = node.Input
		case *algebra.Limit:
			n = node.Input
		case *algebra.Projection:
			n = node.Input
		default:
			return false
		}
	}
}

// approx renders a planner estimate at sketch precision: 1234567 → "1.2M",
// 800000 → "800k", 42 → "42".
func approx(x float64) string {
	switch {
	case x >= 1e6:
		s := strconv.FormatFloat(x/1e6, 'f', 1, 64)
		return strings.TrimSuffix(s, ".0") + "M"
	case x >= 1e3:
		return strconv.FormatFloat(x/1e3, 'f', 0, 64) + "k"
	default:
		return strconv.FormatFloat(x, 'f', 0, 64)
	}
}
