package algebra

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Section 4.4: pandas functions that are compositions of algebra operators.
// Each function here both documents the rewrite and executes it through the
// algebra kernels, so the compositions in the paper are tested code rather
// than prose.

// IsNullFn is the MAP behind pandas isnull/isna: each cell becomes a
// boolean. Its output domain is statically known, so engines skip schema
// induction on the result (the Section 5.1.1 rewrite), and its bulk form
// reads each column's null mask instead of boxing every cell.
func IsNullFn() expr.MapFn {
	return expr.MapFn{
		Name:        "isnull",
		OutDoms:     []types.Domain{types.Bool},
		Elementwise: func(v types.Value) types.Value { return types.BoolValue(v.IsNull()) },
		Column:      func(v vector.Vector) vector.Vector { return vector.NullFlags(v) },
	}
}

// FillNAFn is the MAP behind pandas fillna: nulls become the given value.
func FillNAFn(fill types.Value) expr.MapFn {
	return expr.MapFn{
		Name: "fillna",
		Elementwise: func(v types.Value) types.Value {
			if v.IsNull() {
				return fill
			}
			return v
		},
	}
}

// StrUpperFn is the MAP behind pandas str.upper.
func StrUpperFn() expr.MapFn {
	return expr.MapFn{
		Name: "str.upper",
		Elementwise: func(v types.Value) types.Value {
			if v.IsNull() || (v.Domain() != types.Object && v.Domain() != types.Category) {
				return v
			}
			return types.String(strings.ToUpper(v.Str()))
		},
	}
}

// NormalizeFloatsFn is the generic reusable MAP from Section 4.3's
// discussion: it normalizes each float-domain cell by the sum of the float
// cells in its row, without enumerating the schema — the kind of
// whole-row-generic function SQL projection lists cannot express.
func NormalizeFloatsFn(doms []types.Domain) expr.MapFn {
	return expr.MapFn{
		Name: "normalize-floats",
		Fn: func(r expr.Row) []types.Value {
			sum := 0.0
			for j := 0; j < r.NCols(); j++ {
				if doms[j] == types.Float && !r.Value(j).IsNull() {
					sum += r.Value(j).Float()
				}
			}
			out := make([]types.Value, r.NCols())
			for j := 0; j < r.NCols(); j++ {
				v := r.Value(j)
				if doms[j] == types.Float && !v.IsNull() && sum != 0 {
					out[j] = types.FloatValue(v.Float() / sum)
				} else {
					out[j] = v
				}
			}
			return out
		},
	}
}

// DistinctValues returns the distinct non-null values of the named column in
// first-appearance order. It is the metadata pre-pass that data-dependent-
// schema operators (pivot, get_dummies) require: their output arity depends
// on distinct-value counts (Section 5.2.3).
func DistinctValues(df *core.DataFrame, col string) ([]types.Value, error) {
	j := df.ColIndex(col)
	if j < 0 {
		return nil, fmt.Errorf("algebra: distinct over %w %q", dferrors.ErrUnknownColumn, col)
	}
	v := df.TypedCol(j)
	first := new(keyIndex).firstRows([]vector.Vector{v}, v.Len(), true)
	out := make([]types.Value, len(first))
	for d, i := range first {
		out[d] = v.Value(int(i))
	}
	return out, nil
}

// PivotFlattenFn builds the "flatten" MAP of the pivot plan (Figure 6): it
// consumes a GROUPBY-collect row — pivot key plus a composite cell holding
// that group's sub-dataframe — and emits one output row: the key followed
// by the value-column entry for each distinct index value (null when the
// group lacks that index value).
func PivotFlattenFn(pivotCol, indexCol, valueCol string, indexValues []types.Value) expr.MapFn {
	outCols := make([]types.Value, 0, len(indexValues)+1)
	outCols = append(outCols, types.String(pivotCol))
	for _, v := range indexValues {
		outCols = append(outCols, v)
	}
	return expr.MapFn{
		Name:    "flatten",
		OutCols: outCols,
		GroupFn: func(r expr.Row) []types.Value {
			out := make([]types.Value, len(outCols))
			out[0] = r.ByName(pivotCol)
			for i := range indexValues {
				out[i+1] = types.Null()
			}
			comp := r.ByName(valueCol + "_collect").CompositePayload()
			sub, ok := comp.(*core.DataFrame)
			if !ok || sub == nil {
				return out
			}
			ij, vj := sub.ColIndex(indexCol), sub.ColIndex(valueCol)
			if ij < 0 || vj < 0 {
				return out
			}
			for i := 0; i < sub.NRows(); i++ {
				key := sub.Value(i, ij)
				for k, iv := range indexValues {
					if key.Equal(iv) {
						out[k+1] = sub.Value(i, vj)
					}
				}
			}
			return out
		},
	}
}

// PivotPlan builds the Figure 6 logical plan that pivots input around
// pivotCol: GROUPBY(pivotCol, collect) → MAP(flatten) → TOLABELS(pivotCol)
// → TRANSPOSE. indexValues must be the distinct values of indexCol (the
// metadata pre-pass); sorted declares the input ordered by pivotCol,
// enabling the streaming group-by of the Figure 8(b) rewrite.
func PivotPlan(input Node, pivotCol, indexCol, valueCol string, indexValues []types.Value, sorted bool) Node {
	grouped := &GroupBy{
		Input: input,
		Spec: expr.GroupBySpec{
			Keys:   []string{pivotCol},
			Aggs:   []expr.AggSpec{{Col: valueCol, Agg: expr.AggCollect}},
			Sorted: sorted,
		},
	}
	flattened := &Map{Input: grouped, Fn: PivotFlattenFn(pivotCol, indexCol, valueCol, indexValues)}
	labeled := &ToLabels{Input: flattened, Col: pivotCol}
	return &Transpose{Input: labeled}
}

// Pivot executes the Figure 6 pivot directly through the kernels: the
// result has one row per distinct indexCol value and one column per
// distinct pivotCol value (pivotCol values are elevated into the column
// labels).
func Pivot(df *core.DataFrame, pivotCol, indexCol, valueCol string) (*core.DataFrame, error) {
	indexValues, err := DistinctValues(df, indexCol)
	if err != nil {
		return nil, err
	}
	grouped, err := GroupByFrame(df, expr.GroupBySpec{
		Keys: []string{pivotCol},
		Aggs: []expr.AggSpec{{Col: valueCol, Agg: expr.AggCollect}},
	})
	if err != nil {
		return nil, err
	}
	flat, err := MapFrame(grouped, PivotFlattenFn(pivotCol, indexCol, valueCol, indexValues))
	if err != nil {
		return nil, err
	}
	labeled, err := ToLabelsFrame(flat, pivotCol)
	if err != nil {
		return nil, err
	}
	return TransposeFrame(labeled, nil)
}

// GetDummies implements the pandas get_dummies macro (step A1 of Figure 1):
// every non-numeric column is one-hot encoded into one boolean column per
// distinct value, labelled "col_value"; numeric columns pass through. In
// the algebra this is a GROUPBY-derived metadata pass followed by a MAP
// whose output schema depends on the data — the arity-estimation challenge
// of Section 5.2.3.
func GetDummies(df *core.DataFrame) (*core.DataFrame, error) {
	var cols []vector.Vector
	var labels []types.Value
	var doms []types.Domain
	for j := 0; j < df.NCols(); j++ {
		d := df.Domain(j)
		if d.Numeric() || d == types.Datetime {
			cols = append(cols, df.Col(j))
			labels = append(labels, df.ColLabels()[j])
			doms = append(doms, df.DeclaredDomain(j))
			continue
		}
		name := df.ColName(j)
		distinct, err := DistinctValues(df, name)
		if err != nil {
			return nil, err
		}
		in := df.TypedCol(j)
		for _, dv := range distinct {
			data := make([]bool, in.Len())
			for i := range data {
				data[i] = in.Value(i).Equal(dv)
			}
			cols = append(cols, vector.NewBool(data, nil))
			labels = append(labels, types.String(name+"_"+dv.String()))
			doms = append(doms, types.Bool)
		}
	}
	return core.Build(cols, df.RowLabels(), labels, doms, df.Cache())
}

// AggAll implements the pandas agg(['f1','f2',...]) rewrite from Section
// 4.4: each aggregate is one whole-frame GROUPBY (no keys) producing a
// single row, and the rows are UNIONed in the order the aggregates are
// listed. Row labels carry the aggregate names.
func AggAll(df *core.DataFrame, kinds []expr.AggKind, cols []string) (*core.DataFrame, error) {
	if cols == nil {
		for j := 0; j < df.NCols(); j++ {
			if df.Domain(j).Numeric() {
				cols = append(cols, df.ColName(j))
			}
		}
	}
	var out *core.DataFrame
	for _, kind := range kinds {
		aggs := make([]expr.AggSpec, len(cols))
		for i, c := range cols {
			aggs[i] = expr.AggSpec{Col: c, Agg: kind, As: c}
		}
		row, err := GroupByFrame(df, expr.GroupBySpec{Aggs: aggs})
		if err != nil {
			return nil, err
		}
		row, err = row.WithRowLabels(vector.Repeat(types.String(kind.String()), row.NRows()))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = row
			continue
		}
		out, err = UnionFrames(out, row)
		if err != nil {
			return nil, err
		}
	}
	if out == nil {
		return core.Empty(), nil
	}
	return out, nil
}

// ReindexLike implements target.reindex_like(reference) from Section 4.4:
// the target's rows and columns are reordered to match the reference's row
// labels and column order, with nulls where the target lacks a label.
// Algebraically: FROMLABELS both → INNER JOIN on labels (reference left) →
// MAP projecting target attributes → TOLABELS.
func ReindexLike(target, reference *core.DataFrame) (*core.DataFrame, error) {
	// Row alignment: reference label order, each label's first target row.
	var x keyIndex
	tl, rl := []vector.Vector{target.RowLabels()}, reference.RowLabels()
	first := x.firstRows(tl, target.NRows(), false)
	idx := make([]int, rl.Len())
	probe := x.bind([]vector.Vector{rl}, len(idx), nil, func(a int32) ([]vector.Vector, int) { return tl, int(first[a]) })
	probe.each(func(lo int, ids []int32) {
		for r, a := range ids {
			if idx[lo+r] = -1; a >= 0 {
				idx[lo+r] = int(first[a])
			}
		}
	})
	aligned := target.TakeRows(idx)
	aligned, err := aligned.WithRowLabels(rl)
	if err != nil {
		return nil, err
	}

	// Column alignment: reference column order, null columns where the
	// target lacks the label.
	cols := make([]vector.Vector, reference.NCols())
	labels := make([]types.Value, reference.NCols())
	for j := 0; j < reference.NCols(); j++ {
		name := reference.ColName(j)
		labels[j] = reference.ColLabels()[j]
		if tj := aligned.ColIndex(name); tj >= 0 {
			cols[j] = aligned.Col(tj)
		} else {
			cols[j] = vector.Nulls(types.Object, aligned.NRows())
		}
	}
	return core.Build(cols, rl, labels, nil, target.Cache())
}

// Cov computes the covariance matrix of a matrix dataframe (step A3 of
// Figure 1): a k×k frame whose row and column labels are the input's
// numeric column labels. Pairs are computed over rows where both columns
// are non-null, with the n-1 normalization pandas uses.
func Cov(df *core.DataFrame) (*core.DataFrame, error) {
	var numIdx []int
	for j := 0; j < df.NCols(); j++ {
		if df.Domain(j).Numeric() {
			numIdx = append(numIdx, j)
		}
	}
	k := len(numIdx)
	if k == 0 {
		return nil, fmt.Errorf("algebra: cov requires at least one numeric column")
	}
	colsIn := make([]vector.Vector, k)
	labels := make([]types.Value, k)
	for a, j := range numIdx {
		colsIn[a] = df.TypedCol(j)
		labels[a] = df.ColLabels()[j]
	}
	m := df.NRows()
	out := make([][]float64, k)
	nulls := make([][]bool, k)
	for a := range out {
		out[a] = make([]float64, k)
		nulls[a] = make([]bool, k)
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			var sa, sb, sab float64
			n := 0
			for i := 0; i < m; i++ {
				if colsIn[a].IsNull(i) || colsIn[b].IsNull(i) {
					continue
				}
				x, y := colsIn[a].Value(i).Float(), colsIn[b].Value(i).Float()
				sa += x
				sb += y
				sab += x * y
				n++
			}
			if n < 2 {
				nulls[a][b], nulls[b][a] = true, true
				continue
			}
			c := (sab - sa*sb/float64(n)) / float64(n-1)
			out[a][b], out[b][a] = c, c
		}
	}
	colVecs := make([]vector.Vector, k)
	doms := make([]types.Domain, k)
	for b := 0; b < k; b++ {
		col := make([]float64, k)
		nl := make([]bool, k)
		hasNull := false
		for a := 0; a < k; a++ {
			col[a] = out[a][b]
			nl[a] = nulls[a][b]
			hasNull = hasNull || nl[a]
		}
		if !hasNull {
			nl = nil
		}
		colVecs[b] = vector.NewFloat(col, nl)
		doms[b] = types.Float
	}
	rowLab := vector.FromValues(types.Object, labels)
	return core.Build(colVecs, rowLab, labels, doms, df.Cache())
}
