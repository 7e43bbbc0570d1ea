// Package expr defines the user-defined-function surface of the dataframe
// algebra: row views, selection predicates, MAP functions, sort keys, window
// specifications and aggregate kinds. These are the "subscripts" of the
// algebra operators in Table 1 of the paper.
package expr

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// Row is a read-only view of one dataframe row handed to predicates and MAP
// functions. Per Section 4.3, MAP receives the entire row so a generic
// function can reason across columns without enumerating them.
type Row interface {
	// NCols returns the row's arity.
	NCols() int
	// Value returns the parsed cell at column j.
	Value(j int) types.Value
	// ColName returns column j's label rendered as a string.
	ColName(j int) string
	// ByName returns the cell under the named column (null if absent).
	ByName(name string) types.Value
	// Label returns the row's label from Rm.
	Label() types.Value
	// Position returns the row's position (positional notation).
	Position() int
}

// Predicate decides whether a row survives a SELECTION.
type Predicate func(Row) bool

// And composes predicates conjunctively.
func And(ps ...Predicate) Predicate {
	return func(r Row) bool {
		for _, p := range ps {
			if !p(r) {
				return false
			}
		}
		return true
	}
}

// Or composes predicates disjunctively.
func Or(ps ...Predicate) Predicate {
	return func(r Row) bool {
		for _, p := range ps {
			if p(r) {
				return true
			}
		}
		return false
	}
}

// Not negates a predicate.
func Not(p Predicate) Predicate { return func(r Row) bool { return !p(r) } }

// ColEquals selects rows where the named column equals v.
func ColEquals(name string, v types.Value) Predicate {
	return func(r Row) bool { return r.ByName(name).Equal(v) }
}

// ColNotNull selects rows where the named column is non-null.
func ColNotNull(name string) Predicate {
	return func(r Row) bool { return !r.ByName(name).IsNull() }
}

// MapFn is the function argument of the MAP operator: applied uniformly to
// every row, producing an output row of fixed arity n'. Output column labels
// (and optionally domains, enabling the schema-induction-skipping rewrite of
// Section 5.1.1) describe the result schema; when OutCols is nil the output
// keeps the input schema and Fn must preserve arity.
type MapFn struct {
	// Name identifies the function in plan renderings.
	Name string
	// OutCols is the output column labels; nil keeps the input's labels.
	OutCols []types.Value
	// OutDoms optionally declares output domains, letting engines skip
	// schema induction on the result.
	OutDoms []types.Domain
	// Fn transforms a full row. Exactly one of Fn, Elementwise, GroupFn
	// must be set.
	Fn func(Row) []types.Value
	// Elementwise transforms each cell independently (pandas transform /
	// applymap); engines may run it columnar without materializing rows.
	// Its OutDoms, when declared, is one domain shared by every column.
	Elementwise func(types.Value) types.Value
	// Column is an optional typed bulk form of Elementwise: Elementwise
	// applied to one whole typed column. It must return exactly what the
	// per-cell path returns — same length, same cells, and OutDoms[0] as
	// its domain — so it is valid only beside Elementwise with exactly one
	// declared OutDoms entry. Rewrites that compose Elementwise (map
	// fusion) drop it and run the per-cell path.
	Column func(vector.Vector) vector.Vector
	// GroupFn flattens a composite (collect) cell into an output row; it
	// is the "flatten" MAP of the pivot plan in Figure 6. It receives the
	// row (whose composite columns hold collected sub-frames).
	GroupFn func(Row) []types.Value
}

// Validate checks that exactly one function variant is set and that the
// declared output domains fit it: at most one for an elementwise MAP, one
// per output label for a row or group MAP with explicit labels, and exactly
// one beside a Column form.
func (m MapFn) Validate() error {
	n := 0
	if m.Fn != nil {
		n++
	}
	if m.Elementwise != nil {
		n++
	}
	if m.GroupFn != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("expr: MapFn %q must set exactly one of Fn, Elementwise, GroupFn (got %d)", m.Name, n)
	}
	switch {
	case m.Column != nil && (m.Elementwise == nil || len(m.OutDoms) != 1):
		return fmt.Errorf("expr: MapFn %q sets Column, which needs Elementwise and exactly one OutDoms entry (got %d)", m.Name, len(m.OutDoms))
	case m.Elementwise != nil && len(m.OutDoms) > 1:
		return fmt.Errorf("expr: elementwise MapFn %q declares %d OutDoms, want at most 1", m.Name, len(m.OutDoms))
	case m.Elementwise == nil && m.OutDoms != nil && m.OutCols != nil && len(m.OutDoms) != len(m.OutCols):
		return fmt.Errorf("expr: MapFn %q declares %d OutDoms for %d OutCols", m.Name, len(m.OutDoms), len(m.OutCols))
	}
	return nil
}

// SortKey orders rows by one column.
type SortKey struct {
	// Col is the column label to sort by.
	Col string
	// Desc reverses the order.
	Desc bool
}

// SortOrder is a multi-key lexicographic ordering.
type SortOrder []SortKey

// AggKind enumerates the aggregate functions available to GROUPBY and
// WINDOW. Unlike relational algebra, aggregation may produce composite
// values (Collect).
type AggKind int

// Aggregate kinds.
const (
	AggCount AggKind = iota // count of non-null values
	AggSize                 // count of rows including nulls
	AggSum
	AggMean
	AggMin
	AggMax
	AggFirst
	AggLast
	AggStd
	AggVar
	AggMedian
	AggKurtosis
	AggCountDistinct
	AggCollect // composite: the group's sub-dataframe column
)

var aggNames = map[AggKind]string{
	AggCount:         "count",
	AggSize:          "size",
	AggSum:           "sum",
	AggMean:          "mean",
	AggMin:           "min",
	AggMax:           "max",
	AggFirst:         "first",
	AggLast:          "last",
	AggStd:           "std",
	AggVar:           "var",
	AggMedian:        "median",
	AggKurtosis:      "kurtosis",
	AggCountDistinct: "nunique",
	AggCollect:       "collect",
}

// String returns the pandas-style name of the aggregate.
func (k AggKind) String() string {
	if s, ok := aggNames[k]; ok {
		return s
	}
	return fmt.Sprintf("agg(%d)", int(k))
}

// ParseAgg maps a pandas-style aggregate name to its kind.
func ParseAgg(name string) (AggKind, bool) {
	for k, s := range aggNames {
		if s == name {
			return k, true
		}
	}
	return 0, false
}

// Decomposable reports whether the aggregate can be computed as partial
// per-partition states merged associatively — the property the MODIN engine
// exploits for parallel GROUPBY.
func (k AggKind) Decomposable() bool {
	switch k {
	case AggCount, AggSize, AggSum, AggMin, AggMax, AggFirst, AggLast, AggMean, AggStd, AggVar:
		return true
	default:
		return false
	}
}

// Accumulator computes one aggregate over a stream of values.
type Accumulator struct {
	kind     AggKind
	count    int64 // non-null
	size     int64
	sum      float64
	sumSq    float64
	sum3     float64
	sum4     float64
	min, max types.Value
	first    types.Value
	last     types.Value
	hasFirst bool
	distinct map[string]struct{}
	values   []types.Value // median, kurtosis fallback, collect ordering
}

// NewAccumulator returns an accumulator for kind k.
func NewAccumulator(k AggKind) *Accumulator {
	a := &Accumulator{kind: k}
	if k == AggCountDistinct {
		a.distinct = make(map[string]struct{})
	}
	return a
}

// Add feeds one value.
func (a *Accumulator) Add(v types.Value) {
	a.size++
	if v.IsNull() {
		return
	}
	if !a.hasFirst {
		a.first = v
		a.hasFirst = true
	}
	a.last = v
	a.count++
	switch a.kind {
	case AggSum, AggMean:
		a.sum += v.Float()
	case AggStd, AggVar:
		f := v.Float()
		a.sum += f
		a.sumSq += f * f
	case AggKurtosis:
		f := v.Float()
		a.sum += f
		a.sumSq += f * f
		a.sum3 += f * f * f
		a.sum4 += f * f * f * f
	case AggMin:
		if a.min.IsNull() && a.count == 1 {
			a.min = v
		} else if v.Less(a.min) {
			a.min = v
		}
	case AggMax:
		if a.max.IsNull() && a.count == 1 {
			a.max = v
		} else if a.max.Less(v) {
			a.max = v
		}
	case AggCountDistinct:
		a.distinct[v.Key()] = struct{}{}
	case AggMedian:
		a.values = append(a.values, v)
	}
}

// Merge combines another accumulator of the same kind into a (partial
// aggregation for decomposable kinds).
func (a *Accumulator) Merge(b *Accumulator) {
	a.size += b.size
	if b.count == 0 {
		return
	}
	if !a.hasFirst {
		a.first = b.first
		a.hasFirst = true
	}
	a.last = b.last
	prevCount := a.count
	a.count += b.count
	switch a.kind {
	case AggSum, AggMean:
		a.sum += b.sum
	case AggStd, AggVar, AggKurtosis:
		a.sum += b.sum
		a.sumSq += b.sumSq
		a.sum3 += b.sum3
		a.sum4 += b.sum4
	case AggMin:
		if prevCount == 0 || b.min.Less(a.min) {
			a.min = b.min
		}
	case AggMax:
		if prevCount == 0 || a.max.Less(b.max) {
			a.max = b.max
		}
	case AggCountDistinct:
		for k := range b.distinct {
			a.distinct[k] = struct{}{}
		}
	case AggMedian:
		a.values = append(a.values, b.values...)
	}
}

// Result finalizes the aggregate value.
func (a *Accumulator) Result() types.Value {
	switch a.kind {
	case AggCount:
		return types.IntValue(a.count)
	case AggSize:
		return types.IntValue(a.size)
	case AggSum:
		return types.FloatValue(a.sum)
	case AggMean:
		if a.count == 0 {
			return types.NullValue(types.Float)
		}
		return types.FloatValue(a.sum / float64(a.count))
	case AggMin:
		if a.count == 0 {
			return types.Null()
		}
		return a.min
	case AggMax:
		if a.count == 0 {
			return types.Null()
		}
		return a.max
	case AggFirst:
		if !a.hasFirst {
			return types.Null()
		}
		return a.first
	case AggLast:
		if !a.hasFirst {
			return types.Null()
		}
		return a.last
	case AggVar, AggStd:
		if a.count < 2 {
			return types.NullValue(types.Float)
		}
		n := float64(a.count)
		variance := (a.sumSq - a.sum*a.sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		if a.kind == AggVar {
			return types.FloatValue(variance)
		}
		return types.FloatValue(math.Sqrt(variance))
	case AggKurtosis:
		return a.kurtosis()
	case AggCountDistinct:
		return types.IntValue(int64(len(a.distinct)))
	case AggMedian:
		if len(a.values) == 0 {
			return types.NullValue(types.Float)
		}
		vals := append([]types.Value(nil), a.values...)
		sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
		mid := len(vals) / 2
		if len(vals)%2 == 1 {
			return types.FloatValue(vals[mid].Float())
		}
		return types.FloatValue((vals[mid-1].Float() + vals[mid].Float()) / 2)
	}
	return types.Null()
}

// kurtosis computes the sample excess kurtosis with the same bias
// adjustment pandas uses (Fisher's definition, G2).
func (a *Accumulator) kurtosis() types.Value {
	n := float64(a.count)
	if a.count < 4 {
		return types.NullValue(types.Float)
	}
	mean := a.sum / n
	m2 := a.sumSq/n - mean*mean
	if m2 <= 0 {
		return types.NullValue(types.Float)
	}
	m4 := a.sum4/n - 4*mean*a.sum3/n + 6*mean*mean*a.sumSq/n - 3*mean*mean*mean*mean
	g2 := m4/(m2*m2) - 3
	adj := ((n+1)*g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
	return types.FloatValue(adj)
}

// AggSpec names one aggregate over one column in a GROUPBY.
type AggSpec struct {
	// Col is the aggregated column label; empty means the whole row
	// (valid for AggSize and AggCollect).
	Col string
	// Agg is the aggregate kind.
	Agg AggKind
	// As is the output column label; empty derives "col_agg".
	As string
}

// OutName returns the output column label for the spec.
func (s AggSpec) OutName() string {
	if s.As != "" {
		return s.As
	}
	if s.Col == "" {
		return s.Agg.String()
	}
	return s.Col + "_" + s.Agg.String()
}

// GroupBySpec configures the GROUPBY operator. Unlike SQL, GROUPBY admits
// independent use: with AsLabels set the grouping values are elevated to row
// labels via an implicit TOLABELS, matching pandas groupby semantics.
type GroupBySpec struct {
	// Keys are the grouping column labels.
	Keys []string
	// Aggs are the aggregates to compute per group.
	Aggs []AggSpec
	// AsLabels elevates the key values to the result's row labels.
	AsLabels bool
	// Sorted declares that the input is already sorted by Keys, letting
	// engines use a streaming group-by instead of hashing — the property
	// the Figure 8(b) pivot rewrite exploits.
	Sorted bool
}

// WindowKind enumerates WINDOW operator variants.
type WindowKind int

// Window kinds. Because dataframes are inherently ordered, none of these
// require an ORDER BY clause (Section 4.3, "Window").
const (
	// WindowRolling aggregates a fixed-size trailing window.
	WindowRolling WindowKind = iota
	// WindowExpanding aggregates the full prefix (cumsum, cummax, ...).
	WindowExpanding
	// WindowShift moves values down (positive offset) or up (negative),
	// filling with nulls.
	WindowShift
	// WindowDiff subtracts the value offset rows earlier.
	WindowDiff
)

// WindowSpec configures the WINDOW operator.
type WindowSpec struct {
	// Kind selects the window variant.
	Kind WindowKind
	// Size is the trailing window length for WindowRolling.
	Size int
	// Offset is the lag for WindowShift/WindowDiff (default 1).
	Offset int
	// Agg is the aggregate for rolling/expanding windows.
	Agg AggKind
	// MinPeriods is the minimum observations required to emit a non-null
	// (default: Size for rolling, 1 for expanding).
	MinPeriods int
	// Cols restricts the windowed columns; nil means every column (with
	// non-numeric columns passed through for shift, skipped for
	// numeric aggregates).
	Cols []string
	// Reverse applies the window in the upward direction, per the
	// paper's note that WINDOW slides in either direction.
	Reverse bool
}

// JoinKind enumerates join variants.
type JoinKind int

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinOuter
	JoinCross
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left"
	case JoinRight:
		return "right"
	case JoinOuter:
		return "outer"
	case JoinCross:
		return "cross"
	}
	return fmt.Sprintf("join(%d)", int(k))
}
