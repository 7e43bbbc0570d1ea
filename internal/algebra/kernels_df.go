package algebra

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// TransposeFrame implements TRANSPOSE: given DF = (Amn, Rm, Cn, Dn) it
// returns (Aᵀnm, Cn, Rm, null). The output schema is left unspecified and
// re-induced lazily, unless declared explicitly (the
// TRANSPOSE(df, myschema) form of Section 5.1.2). For homogeneous inputs
// the typed representation is preserved, so a double transpose recovers the
// original Dn without re-induction.
func TransposeFrame(df *core.DataFrame, declared []types.Domain) (*core.DataFrame, error) {
	m, n := df.NRows(), df.NCols()
	if declared != nil && len(declared) != m {
		return nil, fmt.Errorf("algebra: transpose declared schema has %d domains, want %d", len(declared), m)
	}

	// The output's column labels are the input's row labels and
	// vice-versa: data and metadata swap axes.
	outColLab := make([]types.Value, m)
	rowLabels := df.RowLabels()
	for i := 0; i < m; i++ {
		outColLab[i] = rowLabels.Value(i)
	}
	// Labels live in Dom like data does: keep the narrowest domain so a
	// double transpose recovers the original Rm exactly.
	outRowLab := buildColumn(df.ColLabels())

	// TRANSPOSE swaps the stored array without invoking the schema
	// induction function S: inducing types on tiny sub-frames (as blocks
	// of a partitioned transpose) would mis-type data that only the full
	// columns determine. The typed fast path applies only when the stored
	// representation is already homogeneous, which is what lets a double
	// transpose of a typed frame recover Dn without re-induction.
	storageHomogeneous := n > 0
	var storageDom types.Domain
	if n > 0 {
		storageDom = df.Col(0).Domain()
		for j := 1; j < n; j++ {
			if df.Col(j).Domain() != storageDom {
				storageHomogeneous = false
				break
			}
		}
	}

	outCols := make([]vector.Vector, m)
	outDoms := make([]types.Domain, m)
	for i := 0; i < m; i++ {
		dom := types.Object
		outDoms[i] = types.Unspecified
		if declared != nil {
			dom = declared[i]
			outDoms[i] = dom
		} else if storageHomogeneous {
			dom = storageDom
			if dom != types.Object {
				outDoms[i] = dom
			}
		}
		b := vector.NewBuilder(dom, n)
		for j := 0; j < n; j++ {
			b.Append(df.Col(j).Value(i))
		}
		outCols[i] = b.Build()
	}
	return core.Build(outCols, outRowLab, outColLab, outDoms, df.Cache())
}

// MapFrame implements MAP: fn applied uniformly to every row, producing an
// output row of fixed arity. Output labels come from fn.OutCols (defaulting
// to the input labels), and declared fn.OutDoms skip schema induction on
// the result (Section 5.1.1).
func MapFrame(df *core.DataFrame, fn expr.MapFn) (*core.DataFrame, error) {
	if err := fn.Validate(); err != nil {
		return nil, err
	}
	if fn.Elementwise != nil {
		return mapElementwise(df, fn)
	}
	rowFn := fn.Fn
	if rowFn == nil {
		rowFn = fn.GroupFn
	}

	outCols := fn.OutCols
	if outCols == nil {
		outCols = df.ColLabels()
	}
	arity := len(outCols)
	if fn.OutDoms != nil && len(fn.OutDoms) != arity {
		return nil, fmt.Errorf("algebra: MAP %q declares %d OutDoms for %d output columns", fn.Name, len(fn.OutDoms), arity)
	}

	rv := newRowView(df)
	outVals := make([][]types.Value, arity)
	for j := range outVals {
		outVals[j] = make([]types.Value, 0, df.NRows())
	}
	for i := 0; i < df.NRows(); i++ {
		row := rowFn(rv.at(i))
		if len(row) != arity {
			return nil, fmt.Errorf("algebra: MAP %q returned %d values at row %d, want fixed arity %d", fn.Name, len(row), i, arity)
		}
		for j, v := range row {
			outVals[j] = append(outVals[j], v)
		}
	}

	cols := make([]vector.Vector, arity)
	doms := make([]types.Domain, arity)
	for j := range cols {
		if fn.OutDoms != nil {
			doms[j] = fn.OutDoms[j]
			cols[j] = vector.FromValues(doms[j], outVals[j])
		} else {
			cols[j] = buildColumn(outVals[j])
			doms[j] = types.Unspecified
		}
	}
	return core.Build(cols, df.RowLabels(), outCols, doms, df.Cache())
}

// mapElementwise runs a per-cell MAP columnar, without materializing rows:
// through the function's typed Column form when it has one, else boxing
// each cell through Elementwise.
func mapElementwise(df *core.DataFrame, fn expr.MapFn) (*core.DataFrame, error) {
	n := df.NCols()
	labels := fn.OutCols
	if labels == nil {
		labels = df.ColLabels()
	}
	if len(labels) != n {
		return nil, fmt.Errorf("algebra: elementwise MAP %q cannot change arity (%d labels for %d columns)", fn.Name, len(labels), n)
	}
	declared := len(fn.OutDoms) == 1
	dom := types.Unspecified
	if declared {
		dom = fn.OutDoms[0]
	}
	cols := make([]vector.Vector, n)
	doms := make([]types.Domain, n)
	for j := 0; j < n; j++ {
		in := df.TypedCol(j)
		doms[j] = dom
		if fn.Column != nil {
			cols[j] = fn.Column(in)
			continue
		}
		vals := make([]types.Value, in.Len())
		for i := range vals {
			vals[i] = fn.Elementwise(in.Value(i))
		}
		if declared {
			cols[j] = vector.FromValues(dom, vals)
		} else {
			cols[j] = buildColumn(vals)
		}
	}
	return core.Build(cols, df.RowLabels(), labels, doms, df.Cache())
}

// ToLabelsFrame implements TOLABELS: project column L out of the data and
// install it as the row labels, replacing the old labels. Data becomes
// metadata.
func ToLabelsFrame(df *core.DataFrame, col string) (*core.DataFrame, error) {
	j := df.ColIndex(col)
	if j < 0 {
		return nil, fmt.Errorf("algebra: tolabels of %w %q", dferrors.ErrUnknownColumn, col)
	}
	labels := df.TypedCol(j)
	out := df.DropColumn(j)
	return out.WithRowLabels(labels)
}

// FromLabelsFrame implements FROMLABELS: insert the row labels as a new
// data column at position 0 under the given label, and reset the row labels
// to positional notation Pm = (0, ..., m-1). Metadata becomes data; the new
// column's domain starts unspecified until induced by S.
func FromLabelsFrame(df *core.DataFrame, label string) (*core.DataFrame, error) {
	m := df.NRows()
	cols := make([]vector.Vector, 0, df.NCols()+1)
	cols = append(cols, df.RowLabels())
	cols = append(cols, df.Columns()...)
	labels := make([]types.Value, 0, df.NCols()+1)
	labels = append(labels, types.String(label))
	labels = append(labels, df.ColLabels()...)
	doms := make([]types.Domain, 0, df.NCols()+1)
	doms = append(doms, types.Unspecified)
	doms = append(doms, df.Domains()...)
	return core.Build(cols, vector.Range(0, int(m)), labels, doms, df.Cache())
}

// WindowFrame implements WINDOW: a sliding-window function applied in
// either direction. Because dataframes are inherently ordered, no ORDER BY
// is required (Table 1).
func WindowFrame(df *core.DataFrame, spec expr.WindowSpec) (*core.DataFrame, error) {
	offset := spec.Offset
	if offset == 0 {
		offset = 1
	}
	targets := spec.Cols
	if targets == nil {
		targets = df.ColNames()
	}
	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		if df.ColIndex(t) < 0 {
			return nil, fmt.Errorf("algebra: window over %w %q", dferrors.ErrUnknownColumn, t)
		}
		targetSet[t] = true
	}

	n := df.NCols()
	cols := make([]vector.Vector, n)
	doms := make([]types.Domain, n)
	for j := 0; j < n; j++ {
		if !targetSet[df.ColName(j)] {
			cols[j] = df.Col(j)
			doms[j] = df.DeclaredDomain(j)
			continue
		}
		in := df.TypedCol(j)
		out, dom, err := windowColumn(in, spec, offset)
		if err != nil {
			return nil, fmt.Errorf("algebra: window over %q: %w", df.ColName(j), err)
		}
		cols[j] = out
		doms[j] = dom
	}
	return core.Build(cols, df.RowLabels(), df.ColLabels(), doms, df.Cache())
}

func windowColumn(in vector.Vector, spec expr.WindowSpec, offset int) (vector.Vector, types.Domain, error) {
	m := in.Len()
	vals := make([]types.Value, m)

	// index maps output position to logical scan position so Reverse
	// windows reuse the forward implementation.
	pos := func(i int) int {
		if spec.Reverse {
			return m - 1 - i
		}
		return i
	}

	switch spec.Kind {
	case expr.WindowShift:
		for i := 0; i < m; i++ {
			src := i - offset
			if src < 0 || src >= m {
				vals[pos(i)] = types.Null()
			} else {
				vals[pos(i)] = in.Value(pos(src))
			}
		}
		return buildColumn(vals), types.Unspecified, nil

	case expr.WindowDiff:
		if !in.Domain().Numeric() {
			return in, types.Unspecified, nil // non-numeric columns pass through
		}
		for i := 0; i < m; i++ {
			src := i - offset
			if src < 0 || src >= m || in.IsNull(pos(i)) || in.IsNull(pos(src)) {
				vals[pos(i)] = types.NullValue(types.Float)
			} else {
				vals[pos(i)] = types.FloatValue(in.Value(pos(i)).Float() - in.Value(pos(src)).Float())
			}
		}
		return vector.FromValues(types.Float, vals), types.Float, nil

	case expr.WindowExpanding:
		acc := expr.NewAccumulator(spec.Agg)
		minP := spec.MinPeriods
		if minP <= 0 {
			minP = 1
		}
		seen := 0
		for i := 0; i < m; i++ {
			v := in.Value(pos(i))
			acc.Add(v)
			if !v.IsNull() {
				seen++
			}
			if seen < minP {
				vals[pos(i)] = types.Null()
			} else {
				vals[pos(i)] = acc.Result()
			}
		}
		return buildColumn(vals), types.Unspecified, nil

	case expr.WindowRolling:
		if spec.Size <= 0 {
			return nil, types.Unspecified, fmt.Errorf("rolling window requires positive size, got %d", spec.Size)
		}
		minP := spec.MinPeriods
		if minP <= 0 {
			minP = spec.Size
		}
		for i := 0; i < m; i++ {
			lo := i - spec.Size + 1
			if lo < 0 {
				lo = 0
			}
			acc := expr.NewAccumulator(spec.Agg)
			nonNull := 0
			for k := lo; k <= i; k++ {
				v := in.Value(pos(k))
				acc.Add(v)
				if !v.IsNull() {
					nonNull++
				}
			}
			if i+1 < minP || nonNull < minP {
				vals[pos(i)] = types.Null()
			} else {
				vals[pos(i)] = acc.Result()
			}
		}
		return buildColumn(vals), types.Unspecified, nil
	}
	return nil, types.Unspecified, fmt.Errorf("unknown window kind %d", spec.Kind)
}

// InduceFrame forces schema induction and parsing on every unspecified
// column, returning a fully-typed frame. It is the "apply S now" operation
// whose placement the optimizer reasons about (Section 5.1.3).
func InduceFrame(df *core.DataFrame) *core.DataFrame {
	cols := make([]vector.Vector, df.NCols())
	doms := make([]types.Domain, df.NCols())
	for j := 0; j < df.NCols(); j++ {
		cols[j] = df.TypedCol(j)
		doms[j] = df.Domain(j)
	}
	out, err := core.Build(cols, df.RowLabels(), df.ColLabels(), doms, df.Cache())
	if err != nil {
		panic(err) // shape-preserving by construction
	}
	return out
}
