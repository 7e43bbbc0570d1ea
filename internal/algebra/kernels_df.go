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
// returns (Aᵀnm, Cn, Rm, D'm). The output's domains are declared
// explicitly (the TRANSPOSE(df, myschema) form of Section 5.1.2), or else
// are the input's one storage domain when every column stores it, so a
// double transpose of a typed frame recovers Dn without re-induction;
// Object storage, and columns of mixed storage (built as Object), leave
// them unspecified, induced lazily. It is TransposeBands over one band.
func TransposeFrame(df *core.DataFrame, declared []types.Domain) (*core.DataFrame, error) {
	return TransposeBands([]*core.DataFrame{df}, declared, serially)
}

// serially runs fn for 0…n-1 in order on the caller, stopping at the first
// error: the sequential form of an exec.Pool's ForEach.
func serially(n int, fn func(i int) error) error {
	for i := range n {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// TransposeBands transposes a frame held as row bands (at least one), in
// their order; declared, when set, holds a domain per row of the whole
// frame. Band r's transpose is the output's column range r, so each band
// is transposed on its own, by forEach(len(bands), fn) — an exec.Pool's
// ForEach runs them in parallel — straight into its range of the output's
// presized column, label and domain lists; no cell moves between bands and
// the output is one frame. Its cells and domains are the same whatever the
// bands.
//
// The storage the output is built in is decided over every band: the one
// domain every column's storage joins to, a column's join ignoring the
// bands where it holds no non-null cell, Int and Float joining to Float and
// any other two domains to Object. TRANSPOSE swaps the stored array without
// invoking the schema induction function S: inducing types on the few rows
// of a band would mis-type data that only the full columns determine.
//
// A band that stores that domain — Int, Float, Bool, Datetime or Object —
// in every column, and whose declared domains (if any) all equal it, is
// cut from one backing array (vector.Transpose) and nothing is boxed; each
// of its output columns pins that array for its lifetime. Any other band
// (Dict or Composite storage, a band stored narrower than the join,
// another declared domain) takes the boxed path, which builds each output
// column cell by cell through a Builder and is the typed path's oracle.
func TransposeBands(bands []*core.DataFrame, declared []types.Domain, forEach func(n int, fn func(i int) error) error) (*core.DataFrame, error) {
	first := make([]int, len(bands)+1) // first[r]: band r's first row
	for r, b := range bands {
		first[r+1] = first[r] + b.NRows()
	}
	m := first[len(bands)]
	if declared != nil && len(declared) != m {
		return nil, fmt.Errorf("algebra: transpose declared schema has %d domains, want %d", len(declared), m)
	}
	storage := transposeStorage(bands)
	out := transposed{cols: make([]vector.Vector, m), colLab: make([]types.Value, m), doms: make([]types.Domain, m)}
	err := forEach(len(bands), func(r int) error {
		band, part := bands[r], out.rows(first[r], first[r+1])
		var schema []types.Domain
		if declared != nil {
			schema = declared[first[r]:first[r+1]]
		}
		if !transposeTyped(band, schema, storage, part) {
			transposeBoxed(band, schema, storage, part)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Labels live in Dom like data does: the output's row labels keep the
	// narrowest domain, so a double transpose recovers the original Rm.
	return core.Build(out.cols, buildColumn(bands[0].ColLabels()), out.colLab, out.doms, bands[0].Cache())
}

// transposed is a transpose's output lists, or one band's range of them.
type transposed struct {
	cols   []vector.Vector
	colLab []types.Value // the input's row labels: data and metadata swap axes
	doms   []types.Domain
}

// rows returns the range of the output lists that input rows [lo, hi) fill.
func (t transposed) rows(lo, hi int) transposed {
	return transposed{cols: t.cols[lo:hi], colLab: t.colLab[lo:hi], doms: t.doms[lo:hi]}
}

// transposeStorage is the storage domain TransposeBands builds its output
// in: the one domain every column's storage joins to over the bands, or
// Unspecified when the columns' joins differ or there are no columns.
func transposeStorage(bands []*core.DataFrame) types.Domain {
	if bands[0].NCols() == 0 {
		return types.Unspecified
	}
	storage := types.Unspecified
	for j := range bands[0].NCols() {
		col := types.Unspecified
		for _, b := range bands {
			v := b.Col(j)
			switch d := v.Domain(); {
			case d == col, allNull(v):
			case col == types.Unspecified:
				col = d
			case col == types.Int && d == types.Float, col == types.Float && d == types.Int:
				col = types.Float
			default:
				col = types.Object
			}
		}
		if col == types.Unspecified { // no band holds a non-null cell
			col = bands[0].Col(j).Domain()
		}
		if j > 0 && col != storage {
			return types.Unspecified
		}
		storage = col
	}
	return storage
}

// allNull reports whether v holds no non-null cell, reading up to its
// first non-null one.
func allNull(v vector.Vector) bool {
	for i := range v.Len() {
		if !v.IsNull(i) {
			return false
		}
	}
	return true
}

// declaredIn is the declared domain of a column transposed in storage with
// no schema: storage itself, unless it leaves the column to induction
// (Object, or mixed storage).
func declaredIn(storage types.Domain) types.Domain {
	if storage == types.Object {
		return types.Unspecified
	}
	return storage
}

// transposeTyped fills out with the band's transpose on the unboxed path,
// reporting false, having written nothing, when the band does not qualify.
func transposeTyped(band *core.DataFrame, declared []types.Domain, storage types.Domain, out transposed) bool {
	for _, d := range declared {
		if d != storage {
			return false
		}
	}
	for _, col := range band.Columns() {
		if col.Domain() != storage {
			return false
		}
	}
	if !vector.Transpose(out.cols, band.Columns(), storage) {
		return false
	}
	rowLabels := band.RowLabels()
	for i := range out.cols {
		out.colLab[i], out.doms[i] = rowLabels.Value(i), declaredIn(storage)
		if declared != nil {
			out.doms[i] = declared[i]
		}
	}
	return true
}

// transposeBoxed fills out with the band's transpose on the boxed path:
// every cell is read as a Value and appended to its output column's
// Builder, in the declared domain or else in storage (a Builder in
// Unspecified, for mixed storage, builds Object).
func transposeBoxed(band *core.DataFrame, declared []types.Domain, storage types.Domain, out transposed) {
	rowLabels := band.RowLabels()
	for i := range out.cols {
		dom := storage
		out.doms[i] = declaredIn(storage)
		if declared != nil {
			dom, out.doms[i] = declared[i], declared[i]
		}
		b := vector.NewBuilder(dom, band.NCols())
		for j := range band.NCols() {
			b.Append(band.Col(j).Value(i))
		}
		out.cols[i], out.colLab[i] = b.Build(), rowLabels.Value(i)
	}
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
