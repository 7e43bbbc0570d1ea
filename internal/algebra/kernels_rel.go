package algebra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// SelectRows implements SELECTION: rows for which pred holds, in input
// order.
func SelectRows(df *core.DataFrame, pred expr.Predicate) *core.DataFrame {
	rv := newRowView(df)
	idx := make([]int, 0, df.NRows())
	for i := 0; i < df.NRows(); i++ {
		if pred(rv.at(i)) {
			idx = append(idx, i)
		}
	}
	return df.TakeRows(idx)
}

// SelectPositions implements positional SELECTION (dataframes support
// selection by row position, Section 5.2.1).
func SelectPositions(df *core.DataFrame, positions []int) (*core.DataFrame, error) {
	for _, p := range positions {
		if p < 0 || p >= df.NRows() {
			return nil, fmt.Errorf("algebra: row position %d out of range [0, %d)", p, df.NRows())
		}
	}
	return df.TakeRows(positions), nil
}

// Project implements PROJECTION: the named columns in the given order.
func Project(df *core.DataFrame, cols []string) (*core.DataFrame, error) {
	idx := make([]int, len(cols))
	for k, name := range cols {
		j := df.ColIndex(name)
		if j < 0 {
			return nil, fmt.Errorf("algebra: projection of %w %q", dferrors.ErrUnknownColumn, name)
		}
		idx[k] = j
	}
	return df.SelectCols(idx), nil
}

// UnionFrames implements UNION: ordered concatenation, left rows first.
// Columns are aligned by label; the output schema is the left schema
// extended with right-only columns (an "outer" union), with missing cells
// null. When both schemas match positionally this is plain concatenation.
func UnionFrames(left, right *core.DataFrame) (*core.DataFrame, error) {
	names := left.ColNames()
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	for _, n := range right.ColNames() {
		if !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	cols := make([]vector.Vector, len(names))
	labels := make([]types.Value, len(names))
	for k, name := range names {
		labels[k] = types.String(name)
		lj, rj := left.ColIndex(name), right.ColIndex(name)
		var lv, rv vector.Vector
		if lj >= 0 {
			lv = left.Col(lj)
		} else {
			lv = vector.Nulls(types.Object, left.NRows())
		}
		if rj >= 0 {
			rv = right.Col(rj)
		} else {
			rv = vector.Nulls(types.Object, right.NRows())
		}
		cols[k] = vector.Concat(lv, rv)
	}
	rowLab := vector.Concat(left.RowLabels(), right.RowLabels())
	return core.Build(cols, rowLab, labels, nil, left.Cache())
}

// VStackFrames concatenates frames that share a column structure,
// positionally: column j of the result is every input's column j end to
// end, labels and declared domains taken from the first input (domains
// reset to unspecified where inputs disagree). It is the gather operation
// for row partitions — a collected result, the cluster coordinator's
// gathers, a join's right side, the gather exchange — and it copies no
// cell: each column and the row labels are vector.Stack's chunks of the
// inputs' storage, with only columns of mixed storage kinds copied. Unlike
// UNION it never realigns columns by label, so duplicate or non-string
// labels pass through untouched.
func VStackFrames(frames ...*core.DataFrame) (*core.DataFrame, error) {
	if len(frames) == 0 {
		return core.Empty(), nil
	}
	first := frames[0]
	if len(frames) == 1 {
		return first, nil
	}
	n := first.NCols()
	for _, f := range frames[1:] {
		if f.NCols() != n {
			return nil, fmt.Errorf("algebra: vstack arity mismatch: %d vs %d", f.NCols(), n)
		}
	}
	cols := make([]vector.Vector, n)
	doms := make([]types.Domain, n)
	parts := make([]vector.Vector, len(frames)) // Stack keeps none of it
	for j := 0; j < n; j++ {
		for k, f := range frames {
			parts[k] = f.Col(j)
		}
		cols[j] = vector.Stack(parts...)
		doms[j] = StackedDomain(frames, j, cols[j])
	}
	labParts := make([]vector.Vector, len(frames))
	for k, f := range frames {
		labParts[k] = f.RowLabels()
	}
	return core.Build(cols, vector.Stack(labParts...), first.ColLabels(), doms, first.Cache())
}

// StackedDomain is the declared domain of column j of the frames stacked
// into col: the frames' one declared domain when every frame declares it and
// col's storage reads in it, Unspecified otherwise.
func StackedDomain(frames []*core.DataFrame, j int, col vector.Vector) types.Domain {
	dom := frames[0].DeclaredDomain(j)
	for _, f := range frames[1:] {
		if f.DeclaredDomain(j) != dom {
			return types.Unspecified
		}
	}
	if col.Domain() != dom {
		return types.Unspecified
	}
	return dom
}

// DifferenceFrames implements DIFFERENCE: left rows whose full tuple does
// not appear in right, in left order. Schemas must agree on labels. Tuple
// membership is key identity: the right rows' tuples get ids through the
// key-id resolver, anchored at their first rows, and the left rows only find
// theirs.
func DifferenceFrames(left, right *core.DataFrame) (*core.DataFrame, error) {
	if left.NCols() != right.NCols() {
		return nil, fmt.Errorf("algebra: difference arity mismatch: %d vs %d", left.NCols(), right.NCols())
	}
	// Align right columns to left's label order.
	aligned, err := Project(right, left.ColNames())
	if err != nil {
		return nil, fmt.Errorf("algebra: difference schema mismatch: %w", err)
	}
	rcols := typedCols(aligned)
	var present keyIndex
	anchors := present.firstRows(rcols, aligned.NRows(), false)
	var keep []int
	probe := present.bind(typedCols(left), left.NRows(), nil, func(a int32) ([]vector.Vector, int) { return rcols, int(anchors[a]) })
	probe.each(func(lo int, ids []int32) {
		for r, id := range ids {
			if id < 0 {
				keep = append(keep, lo+r)
			}
		}
	})
	return left.TakeRows(keep), nil
}

// DropDuplicatesFrame implements DROP-DUPLICATES: first occurrence of each
// distinct tuple (over subset columns, or all columns when nil), in input
// order. Distinctness is key identity, through the key-id resolver GROUPBY
// uses: the rows that add keys are the rows kept.
func DropDuplicatesFrame(df *core.DataFrame, subset []string) (*core.DataFrame, error) {
	var cols []vector.Vector
	if len(subset) == 0 {
		cols = typedCols(df)
	} else {
		cols = make([]vector.Vector, len(subset))
		for k, name := range subset {
			j := df.ColIndex(name)
			if j < 0 {
				return nil, fmt.Errorf("algebra: drop-duplicates on %w %q", dferrors.ErrUnknownColumn, name)
			}
			cols[k] = df.TypedCol(j)
		}
	}
	first := new(keyIndex).firstRows(cols, df.NRows(), false)
	keep := make([]int, len(first))
	for a, i := range first {
		keep[a] = int(i)
	}
	return df.TakeRows(keep), nil
}

// typedCols resolves every typed column of df.
func typedCols(df *core.DataFrame) []vector.Vector {
	cols := make([]vector.Vector, df.NCols())
	for j := range cols {
		cols[j] = df.TypedCol(j)
	}
	return cols
}

// RenameFrame implements RENAME: relabel columns per mapping.
func RenameFrame(df *core.DataFrame, mapping map[string]string) (*core.DataFrame, error) {
	labels := append([]types.Value(nil), df.ColLabels()...)
	found := 0
	for j := range labels {
		if to, ok := mapping[labels[j].String()]; ok {
			labels[j] = types.String(to)
			found++
		}
	}
	if found < len(mapping) {
		for from := range mapping {
			if df.ColIndex(from) < 0 {
				return nil, fmt.Errorf("algebra: rename of %w %q", dferrors.ErrUnknownColumn, from)
			}
		}
	}
	return df.WithColLabels(labels)
}

// SortFrame implements SORT: stable lexicographic order by the given keys.
// Stability preserves the prior order among ties, which the incremental
// inspection workflow relies on.
func SortFrame(df *core.DataFrame, order expr.SortOrder, byLabels bool) (*core.DataFrame, error) {
	keys, desc := []vector.Vector{df.RowLabels()}, []bool{false}
	if !byLabels {
		var err error
		if keys, desc, err = sortKeys(df, order, "sort"); err != nil {
			return nil, err
		}
	}
	return df.TakeRows(vector.Order(keys, desc, df.NRows())), nil
}

// sortKeys resolves an order's typed key columns and direction flags; op
// names the operator in the unknown-column error.
func sortKeys(df *core.DataFrame, order expr.SortOrder, op string) ([]vector.Vector, []bool, error) {
	keys := make([]vector.Vector, len(order))
	desc := make([]bool, len(order))
	for k, o := range order {
		j := df.ColIndex(o.Col)
		if j < 0 {
			return nil, nil, fmt.Errorf("algebra: %s on %w %q", op, dferrors.ErrUnknownColumn, o.Col)
		}
		keys[k], desc[k] = df.TypedCol(j), o.Desc
	}
	return keys, desc, nil
}

// LimitFrame retains the ordered prefix (n>0) or suffix (n<0).
func LimitFrame(df *core.DataFrame, n int) *core.DataFrame {
	switch {
	case n >= 0:
		if n > df.NRows() {
			n = df.NRows()
		}
		return df.SliceRows(0, n)
	default:
		k := -n
		if k > df.NRows() {
			k = df.NRows()
		}
		return df.SliceRows(df.NRows()-k, df.NRows())
	}
}
