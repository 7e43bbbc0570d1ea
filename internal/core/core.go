// Package core implements the dataframe data model of Definition 4.1 in
// "Towards Scalable Dataframe Systems": a dataframe is a tuple
// (Amn, Rm, Cn, Dn) where Amn is an m×n array of entries, Rm a vector of m
// row labels, Cn a vector of n column labels, and Dn a vector of n domains
// (the schema), each of which may be left unspecified and lazily induced by
// the schema-induction function S.
//
// Rows and columns are symmetric: both are referenceable positionally and by
// label, and labels come from the same set of domains as the data — which is
// what makes TOLABELS/FROMLABELS/TRANSPOSE definable.
package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dferrors"
	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/vector"
)

// DataFrame is the tuple (Amn, Rm, Cn, Dn). It is immutable: every
// operation returns a new DataFrame, sharing column storage where possible.
//
// The one exception to immutability is Dn: lazy schema induction memoizes
// the induced domain in place (Domain), and parallel kernel tasks may share
// one frame, so the domain slots are stored as atomically-accessed int64s
// (zero = types.Unspecified). All access goes through atomic loads/stores.
type DataFrame struct {
	cols    []vector.Vector // Amn column-wise; all vectors share length m
	rowLab  vector.Vector   // Rm, length m; labels are values from Dom
	colLab  []types.Value   // Cn, length n; labels are values from Dom
	domains []int64         // Dn as types.Domain values; see doc above
	cache   *schema.Cache   // shared schema-induction cache (may be nil)
}

// New constructs a dataframe from columns and column names, with default
// positional row labels Pm = (0, ..., m-1) and every domain unspecified
// (induced lazily). All columns must share a length.
func New(names []string, cols []vector.Vector) (*DataFrame, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("core: %d names for %d columns", len(names), len(cols))
	}
	m := 0
	if len(cols) > 0 {
		m = cols[0].Len()
	}
	labels := make([]types.Value, len(names))
	for j, c := range cols {
		if c.Len() != m {
			return nil, fmt.Errorf("core: column %q has %d rows, want %d", names[j], c.Len(), m)
		}
		labels[j] = types.String(names[j])
	}
	return &DataFrame{
		cols:    cols,
		rowLab:  vector.Range(0, m),
		colLab:  labels,
		domains: make([]int64, len(cols)), // zero slots = Unspecified
	}, nil
}

// MustNew is New, panicking on error; for tests and literals.
func MustNew(names []string, cols []vector.Vector) *DataFrame {
	df, err := New(names, cols)
	if err != nil {
		panic(err)
	}
	return df
}

// Build assembles a dataframe from fully-specified parts. It is the
// constructor used by operators; it validates shape invariants.
func Build(cols []vector.Vector, rowLab vector.Vector, colLab []types.Value, domains []types.Domain, cache *schema.Cache) (*DataFrame, error) {
	m := 0
	if len(cols) > 0 {
		m = cols[0].Len()
	} else if rowLab != nil {
		m = rowLab.Len()
	}
	if len(colLab) != len(cols) {
		return nil, fmt.Errorf("core: %d column labels for %d columns", len(colLab), len(cols))
	}
	if domains != nil && len(domains) != len(cols) {
		return nil, fmt.Errorf("core: %d domains for %d columns", len(domains), len(cols))
	}
	for j, c := range cols {
		if c.Len() != m {
			return nil, fmt.Errorf("core: column %d has %d rows, want %d", j, c.Len(), m)
		}
	}
	if rowLab == nil {
		rowLab = vector.Range(0, m)
	}
	if rowLab.Len() != m {
		return nil, fmt.Errorf("core: %d row labels for %d rows", rowLab.Len(), m)
	}
	slots := make([]int64, len(cols))
	for j, d := range domains {
		slots[j] = int64(d)
	}
	return &DataFrame{cols: cols, rowLab: rowLab, colLab: colLab, domains: slots, cache: cache}, nil
}

// MustBuild is Build, panicking on error.
func MustBuild(cols []vector.Vector, rowLab vector.Vector, colLab []types.Value, domains []types.Domain, cache *schema.Cache) *DataFrame {
	df, err := Build(cols, rowLab, colLab, domains, cache)
	if err != nil {
		panic(err)
	}
	return df
}

// Empty returns the 0×0 dataframe.
func Empty() *DataFrame {
	return &DataFrame{rowLab: vector.Range(0, 0)}
}

// Compact materializes any view (selection-vector) columns into typed
// storage, returning df itself when nothing is a view. Fused kernel chains
// pass selections along as views and pay this one coalescing copy at stage
// exit, so downstream stages always see flat storage.
func (df *DataFrame) Compact() *DataFrame {
	changed := false
	cols := df.cols
	for j, c := range df.cols {
		m := vector.Materialize(c)
		if m != c {
			if !changed {
				cols = append([]vector.Vector(nil), df.cols...)
				changed = true
			}
			cols[j] = m
		}
	}
	rowLab := vector.Materialize(df.rowLab)
	if !changed && rowLab == df.rowLab {
		return df
	}
	out := *df
	out.cols = cols
	out.rowLab = rowLab
	return &out
}

// NRows returns m, the number of rows.
func (df *DataFrame) NRows() int { return df.rowLab.Len() }

// NCols returns n, the number of columns.
func (df *DataFrame) NCols() int { return len(df.cols) }

// Col returns the j'th column's storage vector (which may be raw Σ* if the
// column's domain has not been induced).
func (df *DataFrame) Col(j int) vector.Vector { return df.cols[j] }

// Columns returns the column storage slice. Callers must not mutate it.
func (df *DataFrame) Columns() []vector.Vector { return df.cols }

// RowLabels returns Rm.
func (df *DataFrame) RowLabels() vector.Vector { return df.rowLab }

// ColLabels returns Cn. Callers must not mutate it.
func (df *DataFrame) ColLabels() []types.Value { return df.colLab }

// ColName returns the j'th column label rendered as a string.
func (df *DataFrame) ColName(j int) string { return df.colLab[j].String() }

// ColNames returns every column label rendered as a string.
func (df *DataFrame) ColNames() []string {
	out := make([]string, len(df.colLab))
	for j := range df.colLab {
		out[j] = df.colLab[j].String()
	}
	return out
}

// ColIndex returns the position of the first column whose label renders as
// name, or -1. Labels can duplicate; named notation resolves to the first.
func (df *DataFrame) ColIndex(name string) int {
	for j := range df.colLab {
		if df.colLab[j].String() == name {
			return j
		}
	}
	return -1
}

// ColByName returns the column with the given label.
func (df *DataFrame) ColByName(name string) (vector.Vector, error) {
	j := df.ColIndex(name)
	if j < 0 {
		return nil, fmt.Errorf("core: no %w %q", dferrors.ErrUnknownColumn, name)
	}
	return df.cols[j], nil
}

// DeclaredDomain returns the j'th entry of Dn as stored, without inducing.
func (df *DataFrame) DeclaredDomain(j int) types.Domain {
	return types.Domain(atomic.LoadInt64(&df.domains[j]))
}

// Domains returns a snapshot of Dn as stored; entries a sibling task
// induces after the call are not reflected.
func (df *DataFrame) Domains() []types.Domain {
	out := make([]types.Domain, len(df.domains))
	for j := range df.domains {
		out[j] = types.Domain(atomic.LoadInt64(&df.domains[j]))
	}
	return out
}

// Cache returns the schema-induction cache attached to the frame (may be
// nil).
func (df *DataFrame) Cache() *schema.Cache { return df.cache }

// WithCache returns a frame sharing all state but using the given induction
// cache.
func (df *DataFrame) WithCache(c *schema.Cache) *DataFrame {
	out := *df
	out.cache = c
	return &out
}

// Domain returns the j'th column's domain, applying the schema-induction
// function S if Dn[j] is unspecified. The induced result is memoized on the
// frame (and in the shared cache when present): this is the lazy typing of
// Section 5.1. The memo slot is accessed atomically: parallel kernel tasks
// sharing one frame may race to induce the same column, and induction is
// deterministic, so the duplicated work is benign and both store the same
// value.
func (df *DataFrame) Domain(j int) types.Domain {
	if d := types.Domain(atomic.LoadInt64(&df.domains[j])); d != types.Unspecified {
		return d
	}
	var d types.Domain
	if df.cache != nil {
		d = df.cache.Induce(df.cols[j])
	} else {
		d = schema.Induce(df.cols[j])
	}
	atomic.StoreInt64(&df.domains[j], int64(d))
	return d
}

// TypedCol returns the j'th column parsed into its (induced) domain.
func (df *DataFrame) TypedCol(j int) vector.Vector {
	col := df.cols[j]
	if df.cache == nil && df.DeclaredDomain(j) == types.Unspecified {
		// No cache to hold the parse for a later call: take it from the
		// induction's own pass.
		d, typed := schema.InduceAndParse(col)
		atomic.StoreInt64(&df.domains[j], int64(d))
		return typed
	}
	d := df.Domain(j)
	if col.Domain() == d {
		return col
	}
	if df.cache != nil {
		return df.cache.Parse(col, d)
	}
	return schema.Parse(col, d)
}

// Resolved returns the frame with every raw column whose typed form is
// already known — parsed into the frame's cache under the column's declared
// or induced domain — swapped in for its Σ* storage, and the domain declared
// with it. It induces and parses nothing, and returns df itself when there
// is nothing to swap, as for any frame of typed columns. Whatever cuts a
// band into pieces that outlive it (partition.SplitRows, the sort and join
// shuffles) cuts the resolved band, so Σ* → typed happens once, on the band,
// and a piece never re-parses what its band already knew.
func (df *DataFrame) Resolved() *DataFrame {
	if df.cache == nil {
		return df
	}
	out := df
	for j, col := range df.cols {
		declared := df.DeclaredDomain(j)
		if col.Domain() != types.Object || declared == types.Object {
			continue
		}
		typed, ok := df.cache.Resolved(col, declared)
		if !ok {
			continue
		}
		if typed == col {
			// Induced Σ* itself: memoize, as Domain would.
			atomic.StoreInt64(&out.domains[j], int64(types.Object))
			continue
		}
		if out == df {
			cp := *df
			cp.cols = append([]vector.Vector(nil), df.cols...)
			cp.domains = cloneDomains(df.domains)
			out = &cp
		}
		out.cols[j] = typed
		out.domains[j] = int64(typed.Domain())
	}
	return out
}

// Value returns the cell at row i, column j, parsed per the column's
// domain. This is the unique cell interpretation the data model guarantees:
// cells are parsed by their column's schema.
func (df *DataFrame) Value(i, j int) types.Value {
	return df.TypedCol(j).Value(i)
}

// RawValue returns the cell at row i, column j from the stored
// representation without forcing schema induction.
func (df *DataFrame) RawValue(i, j int) types.Value {
	return df.cols[j].Value(i)
}

// Row materializes row i as a slice of parsed values.
func (df *DataFrame) Row(i int) []types.Value {
	out := make([]types.Value, df.NCols())
	for j := range out {
		out[j] = df.Value(i, j)
	}
	return out
}

// TakeRows returns a frame with the rows at idx, in order (index -1 yields
// a null row). Row labels follow the rows.
func (df *DataFrame) TakeRows(idx []int) *DataFrame {
	cols := make([]vector.Vector, len(df.cols))
	for j, c := range df.cols {
		cols[j] = c.Take(idx)
	}
	return &DataFrame{
		cols:    cols,
		rowLab:  df.rowLab.Take(idx),
		colLab:  df.colLab,
		domains: cloneDomains(df.domains),
		cache:   df.cache,
	}
}

// SliceRows returns the frame restricted to rows [lo, hi), sharing storage.
func (df *DataFrame) SliceRows(lo, hi int) *DataFrame {
	cols := make([]vector.Vector, len(df.cols))
	for j, c := range df.cols {
		cols[j] = c.Slice(lo, hi)
	}
	return &DataFrame{
		cols:    cols,
		rowLab:  df.rowLab.Slice(lo, hi),
		colLab:  df.colLab,
		domains: cloneDomains(df.domains),
		cache:   df.cache,
	}
}

// SelectCols returns the frame restricted to the columns at the given
// positions, in order.
func (df *DataFrame) SelectCols(idx []int) *DataFrame {
	cols := make([]vector.Vector, len(idx))
	labels := make([]types.Value, len(idx))
	domains := make([]int64, len(idx))
	for k, j := range idx {
		cols[k] = df.cols[j]
		labels[k] = df.colLab[j]
		domains[k] = atomic.LoadInt64(&df.domains[j])
	}
	return &DataFrame{cols: cols, rowLab: df.rowLab, colLab: labels, domains: domains, cache: df.cache}
}

// WithRowLabels returns the frame with Rm replaced.
func (df *DataFrame) WithRowLabels(labels vector.Vector) (*DataFrame, error) {
	if labels.Len() != df.NRows() {
		return nil, fmt.Errorf("core: %d row labels for %d rows", labels.Len(), df.NRows())
	}
	out := *df
	out.rowLab = labels
	return &out, nil
}

// WithColLabels returns the frame with Cn replaced.
func (df *DataFrame) WithColLabels(labels []types.Value) (*DataFrame, error) {
	if len(labels) != df.NCols() {
		return nil, fmt.Errorf("core: %d column labels for %d columns", len(labels), df.NCols())
	}
	out := *df
	out.colLab = labels
	return &out, nil
}

// WithColumn returns the frame with column j replaced by col (domain resets
// to unspecified unless declared).
func (df *DataFrame) WithColumn(j int, col vector.Vector, d types.Domain) (*DataFrame, error) {
	if col.Len() != df.NRows() {
		return nil, fmt.Errorf("core: replacement column has %d rows, want %d", col.Len(), df.NRows())
	}
	cols := append([]vector.Vector(nil), df.cols...)
	domains := cloneDomains(df.domains)
	cols[j] = col
	domains[j] = int64(d)
	out := *df
	out.cols = cols
	out.domains = domains
	return &out, nil
}

// AppendColumn returns the frame with a new rightmost column. Schema
// mutations are first-class in the dataframe algebra (Section 5.1), so this
// is a core primitive rather than DDL.
func (df *DataFrame) AppendColumn(label types.Value, col vector.Vector, d types.Domain) (*DataFrame, error) {
	if df.NCols() > 0 && col.Len() != df.NRows() {
		return nil, fmt.Errorf("core: new column has %d rows, want %d", col.Len(), df.NRows())
	}
	out := *df
	out.cols = append(append([]vector.Vector(nil), df.cols...), col)
	out.colLab = append(append([]types.Value(nil), df.colLab...), label)
	out.domains = append(cloneDomains(df.domains), int64(d))
	if df.NCols() == 0 {
		out.rowLab = vector.Range(0, col.Len())
	}
	return &out, nil
}

// DropColumn returns the frame without column j.
func (df *DataFrame) DropColumn(j int) *DataFrame {
	idx := make([]int, 0, df.NCols()-1)
	for k := range df.cols {
		if k != j {
			idx = append(idx, k)
		}
	}
	return df.SelectCols(idx)
}

// Equal reports whether two frames agree on shape, labels, and parsed cell
// values. Domains are compared post-induction, so a lazily-typed frame
// equals its explicitly-typed counterpart.
func (df *DataFrame) Equal(o *DataFrame) bool {
	if df.NRows() != o.NRows() || df.NCols() != o.NCols() {
		return false
	}
	if !vector.Equal(df.rowLab, o.rowLab) {
		return false
	}
	for j := range df.colLab {
		if !df.colLab[j].Equal(o.colLab[j]) {
			return false
		}
		if !vector.Equal(df.TypedCol(j), o.TypedCol(j)) {
			return false
		}
	}
	return true
}

// Homogeneous reports whether every column shares one domain (after
// induction); such frames support the matrix view of Section 4.2.
func (df *DataFrame) Homogeneous() bool {
	if df.NCols() == 0 {
		return true
	}
	d := df.Domain(0)
	for j := 1; j < df.NCols(); j++ {
		if df.Domain(j) != d {
			return false
		}
	}
	return true
}

// IsMatrix reports whether the frame is a matrix dataframe: homogeneous
// with a field-like numeric domain (int or float), so it can participate in
// linear-algebra operations.
func (df *DataFrame) IsMatrix() bool {
	if df.NCols() == 0 {
		return false
	}
	if !df.Homogeneous() {
		return false
	}
	d := df.Domain(0)
	return d == types.Int || d == types.Float || d == types.Bool
}

// cloneDomains snapshots a frame's domain slots. Loads are atomic so
// cloning is safe while a sibling task induces a column of the source.
func cloneDomains(ds []int64) []int64 {
	out := make([]int64, len(ds))
	for j := range ds {
		out[j] = atomic.LoadInt64(&ds[j])
	}
	return out
}

// CompositeLabel combines multiple label values into the single composite
// value used for hierarchical (multi-level) labels, per Section 4.5.
func CompositeLabel(parts ...types.Value) types.Value {
	if len(parts) == 1 {
		return parts[0]
	}
	s := "("
	for i, p := range parts {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return types.String(s + ")")
}
