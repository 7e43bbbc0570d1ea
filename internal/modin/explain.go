package modin

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/optimizer"
)

// DescribePhysical renders the engine's physical strategy decisions for a
// logical plan, one line per repartition point in execution (post) order:
// how many right rows each inner/left join builds its one hash table over
// (other joins gather), and how many groups each groupby is expected to
// yield. A last line says when the plan runs inline, as one tree walk on
// the caller, instead. The df layer
// appends this to Query.Explain when the session engine is MODIN.
func (e *Engine) DescribePhysical(n algebra.Node) string {
	desc := e.DescribeStrategy(n)
	if e.inline(n) {
		desc += fmt.Sprintf("inline: sources total ≤ %d rows, one tree walk on the caller\n", inlineRows)
	}
	return desc
}

// DescribeStrategy renders DescribePhysical's strategy lines alone, without
// the inline line: the description for a caller that runs the plan's
// partitioned phases itself rather than through Execute.
func (e *Engine) DescribeStrategy(n algebra.Node) string {
	var b strings.Builder
	e.describeNode(n, algebra.Uses(n), &b)
	if b.Len() == 0 {
		b.WriteString("(no repartition points)\n")
	}
	return b.String()
}

func (e *Engine) describeNode(n algebra.Node, uses map[algebra.Node]int, b *strings.Builder) {
	var keep []string
	if p, ok := n.(*algebra.Projection); ok {
		if scan := PrunedScan(p, uses); scan != nil {
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
		fmt.Fprintf(b, "JOIN strategy=broadcast (build≈%s rows)\n", approx(optimizer.EstimateNode(node.Right).Rows))
	case *algebra.GroupBy:
		fmt.Fprintf(b, "GROUPBY strategy=hash-shuffle (groups≈%s)\n", approx(optimizer.EstimateNode(node).Rows))
	case *algebra.Scan:
		fmt.Fprintf(b, "SCAN strategy=stream (band rows=%d", node.BandSize())
		if node.SizeHint > 0 {
			fmt.Fprintf(b, ", ≈%s bytes", approx(float64(node.SizeHint)))
		}
		if keep != nil {
			fmt.Fprintf(b, ", keep %d/%d cols", len(keep), len(node.Columns))
		}
		b.WriteString(")\n")
	}
}

// approx renders a planner estimate in short form: 1234567 → "1.2M",
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
