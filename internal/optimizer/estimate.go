package optimizer

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/expr"
)

// Estimate is the two-dimensional size estimate of Section 5.2.3: dataframe
// plans need both cardinality (#rows) and arity (#columns), because
// operators like TRANSPOSE, pivot and get_dummies move size between the two
// axes.
type Estimate struct {
	Rows float64
	Cols float64
}

// Cells returns the estimated cell count, the unit of the cost model.
func (e Estimate) Cells() float64 { return e.Rows * e.Cols }

// Default planner constants: the zero-stats model. Only a base frame's
// shape is known exactly; every operator above it is sized by these.
const (
	selectionSelectivity = 0.5
	distinctFraction     = 0.1 // distinct keys per input row for GROUPBY arity/cardinality guesses
)

// EstimateNode computes the output shape estimate for every operator.
func EstimateNode(n algebra.Node) Estimate {
	switch node := n.(type) {
	case *algebra.Source:
		return Estimate{Rows: float64(node.DF.NRows()), Cols: float64(node.DF.NCols())}
	case *algebra.Selection:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Rows * selectionSelectivity, Cols: in.Cols}
	case *algebra.Projection:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Rows, Cols: float64(len(node.Cols))}
	case *algebra.Union:
		l, r := EstimateNode(node.Left), EstimateNode(node.Right)
		return Estimate{Rows: l.Rows + r.Rows, Cols: math.Max(l.Cols, r.Cols)}
	case *algebra.Difference:
		l := EstimateNode(node.Left)
		return Estimate{Rows: l.Rows * selectionSelectivity, Cols: l.Cols}
	case *algebra.Join:
		l, r := EstimateNode(node.Left), EstimateNode(node.Right)
		if node.Kind == expr.JoinCross {
			return Estimate{Rows: l.Rows * r.Rows, Cols: l.Cols + r.Cols}
		}
		return Estimate{Rows: math.Max(l.Rows, r.Rows), Cols: l.Cols + r.Cols - float64(len(node.On))}
	case *algebra.DropDuplicates:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Rows * selectionSelectivity, Cols: in.Cols}
	case *algebra.GroupBy:
		in := EstimateNode(node.Input)
		groups := math.Max(1, in.Rows*distinctFraction)
		cols := float64(len(node.Spec.Keys) + len(node.Spec.Aggs))
		if node.Spec.AsLabels {
			cols = float64(len(node.Spec.Aggs))
		}
		return Estimate{Rows: groups, Cols: cols}
	case *algebra.Sort, *algebra.Rename, *algebra.Window, *algebra.Induce:
		return EstimateNode(n.Children()[0])
	case *algebra.Transpose:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Cols, Cols: in.Rows} // axes swap exactly
	case *algebra.Map:
		in := EstimateNode(node.Input)
		if node.Fn.OutCols != nil {
			return Estimate{Rows: in.Rows, Cols: float64(len(node.Fn.OutCols))}
		}
		return in
	case *algebra.ToLabels:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Rows, Cols: in.Cols - 1}
	case *algebra.FromLabels:
		in := EstimateNode(node.Input)
		return Estimate{Rows: in.Rows, Cols: in.Cols + 1}
	case *algebra.Limit:
		in := EstimateNode(node.Input)
		k := float64(node.N)
		if k < 0 {
			k = -k
		}
		return Estimate{Rows: math.Min(in.Rows, k), Cols: in.Cols}
	case *algebra.TopK:
		in := EstimateNode(node.Input)
		k := float64(node.N)
		if k < 0 {
			k = -k
		}
		return Estimate{Rows: math.Min(in.Rows, k), Cols: in.Cols}
	}
	return Estimate{}
}
