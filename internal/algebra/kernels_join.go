package algebra

import (
	"slices"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// JoinFrames implements JOIN and CROSS-PRODUCT. The result order is nested:
// left rows in order, each associated in order with its matching right rows
// (Table 1 †). Unmatched right rows of right/outer joins follow in right
// order. Column-label collisions outside the join keys get pandas-style
// "_x"/"_y" suffixes.
//
// A keyed join builds a JoinTable over the right input's key columns (or
// row labels) and joins the left against it: bulk hashes, typed-kernel
// verification, no per-row string keys or boxed values. MODIN runs the
// same two calls, building once and joining every left band.
func JoinFrames(left, right *core.DataFrame, kind expr.JoinKind, on []string, onLabels bool) (*core.DataFrame, error) {
	if kind == expr.JoinCross {
		return crossProduct(left, right)
	}
	return BuildJoinTable(right, on, onLabels).Join(left, kind)
}

// crossProduct yields the ordered cross product: each left tuple paired, in
// order, with every right tuple.
func crossProduct(left, right *core.DataFrame) (*core.DataFrame, error) {
	nl, nr := left.NRows(), right.NRows()
	leftIdx := make([]int, 0, nl*nr)
	rightIdx := make([]int, 0, nl*nr)
	for i := 0; i < nl; i++ {
		for j := 0; j < nr; j++ {
			leftIdx = append(leftIdx, i)
			rightIdx = append(rightIdx, j)
		}
	}
	return assembleJoin(left, right, nil, false, leftIdx, rightIdx)
}

// assembleJoin materializes the joined frame from matched row index pairs
// (-1 meaning null-extension on that side).
func assembleJoin(left, right *core.DataFrame, on []string, onLabels bool, leftIdx, rightIdx []int) (*core.DataFrame, error) {
	onSet := make(map[string]bool, len(on))
	for _, name := range on {
		onSet[name] = true
	}
	leftNames := make(map[string]bool, left.NCols())
	for _, n := range left.ColNames() {
		leftNames[n] = true
	}

	var cols []vector.Vector
	var labels []types.Value

	for j := 0; j < left.NCols(); j++ {
		name := left.ColName(j)
		var col vector.Vector
		if rj := right.ColIndex(name); onSet[name] && rj >= 0 {
			// Join keys appear once; fill left-null slots (unmatched
			// right rows of outer joins) from the right side.
			col = coalesceTake(left.Col(j), right.Col(rj), leftIdx, rightIdx)
		} else {
			col = left.Col(j).Take(leftIdx)
		}
		switch {
		case onSet[name]:
			labels = append(labels, types.String(name))
		case right.ColIndex(name) >= 0:
			labels = append(labels, types.String(name+"_x"))
		default:
			labels = append(labels, types.String(name))
		}
		cols = append(cols, col)
	}
	for j := 0; j < right.NCols(); j++ {
		name := right.ColName(j)
		if onSet[name] {
			continue
		}
		if leftNames[name] {
			labels = append(labels, types.String(name+"_y"))
		} else {
			labels = append(labels, types.String(name))
		}
		cols = append(cols, right.Col(j).Take(rightIdx))
	}

	// Row labels: label-joins keep the join label; data joins reset to
	// positional notation (pandas merge semantics).
	var rowLab vector.Vector
	if onLabels {
		rowLab = coalesceTake(left.RowLabels(), right.RowLabels(), leftIdx, rightIdx)
	} else {
		rowLab = vector.Range(0, len(leftIdx))
	}
	return core.Build(cols, rowLab, labels, nil, left.Cache())
}

// coalesceTake takes from primary at pIdx, falling back to secondary at
// sIdx where pIdx is -1. When no pIdx is -1 (inner and left joins) and both
// sides share a domain, that is primary's own typed Take. Otherwise the
// cells are boxed, and sides whose domains differ (Int against Float keys)
// come out Object.
func coalesceTake(primary, secondary vector.Vector, pIdx, sIdx []int) vector.Vector {
	dom := primary.Domain()
	if dom == secondary.Domain() && !slices.Contains(pIdx, -1) {
		return primary.Take(pIdx)
	}
	vals := make([]types.Value, len(pIdx))
	for k := range pIdx {
		switch {
		case pIdx[k] >= 0:
			vals[k] = primary.Value(pIdx[k])
		case sIdx[k] >= 0:
			vals[k] = secondary.Value(sIdx[k])
		default:
			vals[k] = types.Null()
		}
	}
	if dom != secondary.Domain() {
		dom = types.Object
	}
	return vector.FromValues(dom, vals)
}
