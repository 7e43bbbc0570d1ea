package df

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/optimizer"
	"repro/internal/types"
)

// Query is a lazy, chainable query plan: the rewrite-into-an-algebra API the
// paper argues for (Section 4.4). Each method appends one operator to a
// logical algebra.Node tree without executing anything; the terminal verbs —
// Collect, CollectAsync, Explain, Count, First — run the accumulated plan
// through the optimizer's rewrite rules and then through ONE
// compile→schedule pass on the bound engine. A filter→map chain therefore
// fuses into one task per partition band end-to-end, instead of
// materializing (and re-partitioning) at every method boundary the way the
// eager DataFrame methods do.
//
// Queries are immutable: every method returns a new Query sharing the
// receiver's prefix, so a plan can fork into multiple continuations.
// Construction errors (an unknown column in Drop, a bad aggregate name) are
// sticky: they ride the chain and surface at the terminal verb, keeping the
// builder fluent.
type Query struct {
	plan   algebra.Node
	engine Engine
	err    error
}

// Lazy starts a query over the dataframe: subsequent method calls build a
// plan and nothing executes until Collect (or another terminal verb).
func (d *DataFrame) Lazy() *Query {
	return &Query{plan: &algebra.Source{DF: d.frame}, engine: d.engine}
}

// ScanCSV starts a lazy query over CSV input with a header row; columns stay
// untyped (Σ*) until first operated on, per the paper's lazy schema
// induction. The reader is drained once up front (it is not replayable);
// parsing happens morsel-by-morsel at execution on the MODIN engine, so a
// fused filter chain consumes band 0 while band N is still being parsed.
// Read errors are sticky and surface at the terminal verb.
func ScanCSV(r io.Reader) *Query {
	data, err := io.ReadAll(r)
	if err != nil {
		return &Query{engine: newEngine(), err: scanErr("", err)}
	}
	return scanBytes(data)
}

// ScanCSVString starts a lazy query over CSV text, parsed morsel-by-morsel
// at execution.
func ScanCSVString(s string) *Query { return scanBytes([]byte(s)) }

// ScanCSVFile starts a lazy query over a CSV file. The file is parsed
// morsel-by-morsel at execution — a file much larger than memory streams
// through a fused filter→groupby chain under a fixed ceiling (see
// WithScanBandRows and WithSpillBudget) instead of being materialized.
// Open and header-parse errors are sticky, wrap ErrScanSource, and carry
// the file path.
func ScanCSVFile(path string) *Query {
	info, err := os.Stat(path)
	if err != nil {
		return &Query{engine: newEngine(), err: scanErr(path, err)}
	}
	return scanQuery(&algebra.Scan{
		Name: "csv",
		Path: path,
		Open: func() (io.ReadCloser, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, scanErr(path, err)
			}
			return f, nil
		},
		Options:  core.DefaultCSVOptions(),
		SizeHint: info.Size(),
	}, path)
}

func scanBytes(data []byte) *Query {
	return scanQuery(&algebra.Scan{
		Name: "csv",
		Data: data,
		Open: func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(data)), nil
		},
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
	}, "")
}

// scanQuery probes the scan's header once at build time: open/parse errors
// become sticky query errors (wrapping ErrScanSource), and the probed
// column names power static schema inference (Drop, MapCol, DropNA).
func scanQuery(scan *algebra.Scan, path string) *Query {
	cur, err := scan.Cursor()
	if err != nil {
		return &Query{engine: newEngine(), err: scanErr(path, err)}
	}
	scan.Columns = cur.Columns()
	cur.Close()
	return &Query{plan: scan, engine: newEngine()}
}

// scanErr wraps a scan open/parse failure with the ErrScanSource sentinel
// and, when known, the source path.
func scanErr(path string, err error) error {
	if path == "" {
		return fmt.Errorf("df: scan csv: %w: %w", dferrors.ErrScanSource, err)
	}
	return fmt.Errorf("df: scan csv %q: %w: %w", path, dferrors.ErrScanSource, err)
}

// WithScanBandRows sets the morsel size (rows per parsed band) of every
// streaming scan in the plan. Smaller bands lower the peak memory of a
// streamed pipeline and the first-band latency; larger bands amortize
// per-band overhead. n must be positive, and the plan must contain a
// streaming scan (a Lazy() query over an in-memory frame has none).
func (q *Query) WithScanBandRows(n int) *Query {
	if q.err != nil {
		return q
	}
	if n <= 0 {
		return q.fail(fmt.Errorf("df: scan band rows must be positive, got %d", n))
	}
	plan, found := rewriteScans(q.plan, func(s *algebra.Scan) *algebra.Scan {
		c := *s
		c.BandRows = n
		return &c
	})
	if !found {
		return q.fail(fmt.Errorf("df: WithScanBandRows: plan has no streaming scan"))
	}
	return &Query{plan: plan, engine: q.engine}
}

// WithSpillBudget binds the query to a MODIN engine whose shuffle merges
// spill to disk past the given resident-cell budget: a GROUPBY/SORT/JOIN
// over a streamed scan degrades to disk instead of exceeding memory. The
// spill files are removed when the terminal verb finishes.
func (q *Query) WithSpillBudget(cells int) *Query {
	if q.err != nil {
		return q
	}
	return &Query{plan: q.plan, engine: modin.New(modin.WithShuffleSpillBudget(cells))}
}

// rewriteScans rebuilds the plan with fn applied to every Scan leaf,
// reporting whether any was found.
func rewriteScans(n algebra.Node, fn func(*algebra.Scan) *algebra.Scan) (algebra.Node, bool) {
	if s, ok := n.(*algebra.Scan); ok {
		return fn(s), true
	}
	kids := n.Children()
	if len(kids) == 0 {
		return n, false
	}
	found := false
	newKids := make([]algebra.Node, len(kids))
	for i, k := range kids {
		nk, f := rewriteScans(k, fn)
		newKids[i] = nk
		found = found || f
	}
	if !found {
		return n, false
	}
	return algebra.WithChildren(n, newKids), true
}

// WithEngine rebinds the query to a different engine.
func (q *Query) WithEngine(e Engine) *Query {
	return &Query{plan: q.plan, engine: e, err: q.err}
}

// Plan exposes the accumulated (pre-optimization) logical plan.
func (q *Query) Plan() algebra.Node { return q.plan }

// Err returns the sticky construction error, if any.
func (q *Query) Err() error { return q.err }

// with extends the plan by one operator.
func (q *Query) with(node algebra.Node) *Query {
	if q.err != nil {
		return q
	}
	return &Query{plan: node, engine: q.engine}
}

// apply extends the plan with a caller-built operator (the session layer and
// DataFrame.run compose through this, keeping node construction in one
// place).
func (q *Query) apply(build func(algebra.Node) algebra.Node) *Query {
	if q.err != nil {
		return q
	}
	return q.with(build(q.plan))
}

// fail returns a query carrying a sticky error.
func (q *Query) fail(err error) *Query {
	if q.err != nil {
		return q
	}
	return &Query{plan: q.plan, engine: q.engine, err: err}
}

// --- chainable operators --------------------------------------------------

// Select appends PROJECTION: keep the named columns in order.
func (q *Query) Select(cols ...string) *Query {
	return q.with(&algebra.Projection{Input: q.plan, Cols: cols})
}

// Where appends structured SELECTION: the conjunction of the conditions,
// compiled to the typed filter kernels at execution. Zero conditions keep
// every row.
func (q *Query) Where(conds ...Cond) *Query {
	w := whereOf(conds)
	return q.with(&algebra.Selection{Input: q.plan, Where: w, Pred: w.Predicate(), Desc: w.Describe()})
}

// Filter appends SELECTION with an opaque row predicate. Prefer Where for
// column comparisons — structured conditions run through the typed kernels
// and stay visible to the optimizer.
func (q *Query) Filter(desc string, pred func(Row) bool) *Query {
	return q.with(&algebra.Selection{
		Input: q.plan,
		Pred:  func(r expr.Row) bool { return pred(Row{r}) },
		Desc:  desc,
	})
}

// Drop appends a PROJECTION of every column except the named ones. The
// surviving columns are resolved against the plan's statically-inferred
// schema, so Drop needs the chain's column labels to be derivable (they are
// for every builder method except opaque transposes and joins).
func (q *Query) Drop(cols ...string) *Query {
	if q.err != nil {
		return q
	}
	names := columnsOf(q.plan)
	if names == nil {
		return q.fail(fmt.Errorf("df: drop needs a statically-known schema; %s does not expose one", q.plan.Describe()))
	}
	dropSet := make(map[string]bool, len(cols))
	for _, c := range cols {
		dropSet[c] = true
	}
	found := make(map[string]bool, len(cols))
	keep := make([]string, 0, len(names))
	for _, name := range names {
		if dropSet[name] {
			// Every occurrence of a dropped label goes, matching eager
			// drop on duplicate-label frames.
			found[name] = true
			continue
		}
		keep = append(keep, name)
	}
	for _, c := range cols {
		if !found[c] {
			return q.fail(fmt.Errorf("df: drop of %w %q", dferrors.ErrUnknownColumn, c))
		}
	}
	return q.Select(keep...)
}

// Rename appends RENAME: relabel columns per the mapping.
func (q *Query) Rename(mapping map[string]string) *Query {
	return q.with(&algebra.Rename{Input: q.plan, Mapping: mapping})
}

// SortValues appends SORT over the given columns ascending.
func (q *Query) SortValues(cols ...string) *Query {
	order := make(expr.SortOrder, len(cols))
	for i, c := range cols {
		order[i] = expr.SortKey{Col: c}
	}
	return q.with(&algebra.Sort{Input: q.plan, Order: order})
}

// SortValuesBy appends SORT with explicit per-key direction.
func (q *Query) SortValuesBy(order []SortKey) *Query {
	o := make(expr.SortOrder, len(order))
	for i, k := range order {
		o[i] = expr.SortKey{Col: k.Col, Desc: k.Desc}
	}
	return q.with(&algebra.Sort{Input: q.plan, Order: o})
}

// SortIndex appends SORT by the row labels.
func (q *Query) SortIndex() *Query {
	return q.with(&algebra.Sort{Input: q.plan, ByLabels: true})
}

// DropDuplicates appends duplicate-row removal (over the given columns;
// none means all), keeping first occurrences.
func (q *Query) DropDuplicates(subset ...string) *Query {
	return q.with(&algebra.DropDuplicates{Input: q.plan, Subset: subset})
}

// Concat appends other's rows below this query's: the ordered UNION.
func (q *Query) Concat(other *Query) *Query {
	if q.err == nil && other.err != nil {
		return q.fail(other.err)
	}
	return q.with(&algebra.Union{Left: q.plan, Right: other.plan})
}

// Except appends the ordered DIFFERENCE: rows of this query not present in
// other, preserving this query's order.
func (q *Query) Except(other *Query) *Query {
	if q.err == nil && other.err != nil {
		return q.fail(other.err)
	}
	return q.with(&algebra.Difference{Left: q.plan, Right: other.plan})
}

// Merge appends an inner equi-JOIN on the named columns.
func (q *Query) Merge(other *Query, on ...string) *Query {
	return q.merge(other, expr.JoinInner, on, false)
}

// MergeKind appends an equi-JOIN with explicit kind: "inner", "left",
// "right", "outer".
func (q *Query) MergeKind(other *Query, kind string, on ...string) *Query {
	k, err := parseJoinKind(kind)
	if err != nil {
		return q.fail(err)
	}
	return q.merge(other, k, on, false)
}

// MergeOnIndex appends an inner JOIN on the row labels.
func (q *Query) MergeOnIndex(other *Query) *Query {
	return q.merge(other, expr.JoinInner, nil, true)
}

// CrossJoin appends the ordered cross product.
func (q *Query) CrossJoin(other *Query) *Query {
	return q.merge(other, expr.JoinCross, nil, false)
}

func (q *Query) merge(other *Query, kind expr.JoinKind, on []string, onLabels bool) *Query {
	if q.err == nil && other.err != nil {
		return q.fail(other.err)
	}
	return q.with(&algebra.Join{
		Left:     q.plan,
		Right:    other.plan,
		Kind:     kind,
		On:       on,
		OnLabels: onLabels,
	})
}

// ApplyMap appends the elementwise MAP: fn over every cell.
func (q *Query) ApplyMap(name string, fn func(Value) Value) *Query {
	return q.with(&algebra.Map{Input: q.plan, Fn: expr.MapFn{Name: name, Elementwise: fn}})
}

// Apply appends the general MAP: fn over every row, producing the named
// output columns.
func (q *Query) Apply(name string, outCols []string, fn func(Row) []Value) *Query {
	labels := make([]types.Value, len(outCols))
	for i, c := range outCols {
		labels[i] = types.String(c)
	}
	return q.with(&algebra.Map{Input: q.plan, Fn: expr.MapFn{
		Name:    name,
		OutCols: labels,
		Fn:      func(r expr.Row) []types.Value { return fn(Row{r}) },
	}})
}

// MapCol appends a MAP transforming one column, leaving the rest unchanged.
// The column is validated against the chain's statically-inferred schema —
// an unknown column is a (sticky) build-time error, and like Drop the
// schema must be derivable (a row MAP cannot report a missing column at
// execution time, and silently passing rows through would hide the bug).
func (q *Query) MapCol(col string, name string, fn func(Value) Value) *Query {
	if q.err != nil {
		return q
	}
	names := columnsOf(q.plan)
	if names == nil {
		return q.fail(fmt.Errorf("df: mapcol needs a statically-known schema; %s does not expose one", q.plan.Describe()))
	}
	// Resolve the first occurrence once at build time: the schema is
	// exact, and no optimizer rule reorders columns below a row MAP.
	target := -1
	for k, n := range names {
		if n == col {
			target = k
			break
		}
	}
	if target < 0 {
		return q.fail(fmt.Errorf("df: no %w %q", dferrors.ErrUnknownColumn, col))
	}
	return q.with(&algebra.Map{Input: q.plan, Fn: expr.MapFn{
		Name: name,
		Fn: func(r expr.Row) []types.Value {
			out := make([]types.Value, r.NCols())
			for k := 0; k < r.NCols(); k++ {
				out[k] = r.Value(k)
			}
			out[target] = fn(out[target])
			return out
		},
	}})
}

// IsNA appends the MAP replacing every cell with whether it is null.
func (q *Query) IsNA() *Query {
	return q.with(&algebra.Map{Input: q.plan, Fn: algebra.IsNullFn()})
}

// FillNA appends the MAP replacing nulls with the given value.
func (q *Query) FillNA(v Value) *Query {
	return q.with(&algebra.Map{Input: q.plan, Fn: algebra.FillNAFn(v)})
}

// DropNA appends a SELECTION removing rows containing any null. With a
// statically-known schema of unique labels the filter is one structured
// NotNull conjunction over every column (the kernel path); otherwise it
// falls back to the positional row predicate.
func (q *Query) DropNA() *Query {
	if q.err != nil {
		return q
	}
	names := columnsOf(q.plan)
	if names != nil && uniqueStrings(names) {
		w := &expr.Where{Terms: make([]expr.WhereTerm, len(names))}
		for i, n := range names {
			w.Terms[i] = NotNull(n).term
		}
		return q.with(&algebra.Selection{Input: q.plan, Where: w, Pred: w.Predicate(), Desc: "no nulls"})
	}
	return q.with(&algebra.Selection{
		Input: q.plan,
		Desc:  "no nulls",
		Pred: func(r expr.Row) bool {
			for j := 0; j < r.NCols(); j++ {
				if r.Value(j).IsNull() {
					return false
				}
			}
			return true
		},
	})
}

// T appends the matrix-like TRANSPOSE.
func (q *Query) T() *Query {
	return q.with(&algebra.Transpose{Input: q.plan})
}

// Head appends LIMIT: keep the ordered n-prefix.
func (q *Query) Head(n int) *Query {
	return q.with(&algebra.Limit{Input: q.plan, N: n})
}

// Tail appends LIMIT: keep the ordered n-suffix.
func (q *Query) Tail(n int) *Query {
	return q.with(&algebra.Limit{Input: q.plan, N: -n})
}

// GroupBy starts a grouped aggregation on the query; the returned builder's
// aggregate verbs append one GROUPBY node.
func (q *Query) GroupBy(keys ...string) *QueryGroupBy {
	return &QueryGroupBy{q: q, keys: keys}
}

// QueryGroupBy is a pending grouped aggregation on a lazy query.
type QueryGroupBy struct {
	q       *Query
	keys    []string
	asIndex bool
	sorted  bool
}

// AsIndex elevates the group keys to row labels (pandas groupby default).
func (g *QueryGroupBy) AsIndex() *QueryGroupBy {
	return &QueryGroupBy{q: g.q, keys: g.keys, asIndex: true, sorted: g.sorted}
}

// Sorted declares the input already ordered by the keys, switching the
// engine to a streaming group-by (the Figure 8(b) rewrite).
func (g *QueryGroupBy) Sorted() *QueryGroupBy {
	return &QueryGroupBy{q: g.q, keys: g.keys, asIndex: g.asIndex, sorted: true}
}

// Agg appends GROUPBY computing the named aggregates; each spec is
// (column, aggregate, output name).
func (g *QueryGroupBy) Agg(specs ...AggSpec) *Query {
	aggs, err := parseAggSpecs(specs)
	if err != nil {
		return g.q.fail(err)
	}
	return g.agg(aggs)
}

// Count counts non-null values of col per group.
func (g *QueryGroupBy) Count(col string) *Query {
	return g.agg([]expr.AggSpec{{Col: col, Agg: expr.AggCount, As: col + "_count"}})
}

// Size counts rows per group, nulls included.
func (g *QueryGroupBy) Size() *Query {
	return g.agg([]expr.AggSpec{{Agg: expr.AggSize, As: "size"}})
}

// Sum sums col per group.
func (g *QueryGroupBy) Sum(col string) *Query {
	return g.agg([]expr.AggSpec{{Col: col, Agg: expr.AggSum, As: col + "_sum"}})
}

// Mean averages col per group.
func (g *QueryGroupBy) Mean(col string) *Query {
	return g.agg([]expr.AggSpec{{Col: col, Agg: expr.AggMean, As: col + "_mean"}})
}

// Min takes the per-group minimum of col.
func (g *QueryGroupBy) Min(col string) *Query {
	return g.agg([]expr.AggSpec{{Col: col, Agg: expr.AggMin, As: col + "_min"}})
}

// Max takes the per-group maximum of col.
func (g *QueryGroupBy) Max(col string) *Query {
	return g.agg([]expr.AggSpec{{Col: col, Agg: expr.AggMax, As: col + "_max"}})
}

func (g *QueryGroupBy) agg(aggs []expr.AggSpec) *Query {
	return g.q.with(&algebra.GroupBy{Input: g.q.plan, Spec: expr.GroupBySpec{
		Keys:     g.keys,
		Aggs:     aggs,
		AsLabels: g.asIndex,
		Sorted:   g.sorted,
	}})
}

// --- terminal verbs -------------------------------------------------------

// optimized runs the accumulated plan through the default rewrite rules.
func (q *Query) optimized() (algebra.Node, error) {
	if q.err != nil {
		return nil, q.err
	}
	plan, _ := optimizer.Optimize(q.plan, optimizer.Default())
	return plan, nil
}

// spillReleaser matches engines (MODIN with WithSpillBudget) holding
// per-run spill files that should be freed once a terminal verb finishes.
type spillReleaser interface{ ReleaseSpill() error }

// releaseSpill frees the engine's shuffle spill files, if it keeps any.
// The store is re-created lazily, so a query may be collected again.
func (q *Query) releaseSpill() {
	if sr, ok := q.engine.(spillReleaser); ok {
		sr.ReleaseSpill()
	}
}

// Collect optimizes the plan and executes it in one compile→schedule pass,
// materializing the result.
func (q *Query) Collect() (*DataFrame, error) {
	plan, err := q.optimized()
	if err != nil {
		return nil, err
	}
	defer q.releaseSpill()
	out, err := q.engine.Execute(plan)
	if err != nil {
		return nil, err
	}
	return wrap(out, q.engine), nil
}

// asyncEngine matches engines (MODIN) that schedule a plan's task DAG and
// hand back a future without blocking; see session.AsyncEngine.
type asyncEngine interface {
	ExecuteAsync(algebra.Node) *exec.Future
}

// CollectAsync optimizes the plan, schedules it, and returns immediately
// with a future of the result. On an async engine (MODIN) the plan's task
// DAG is already in flight when this returns; other engines evaluate on a
// background goroutine.
func (q *Query) CollectAsync() *Future {
	plan, err := q.optimized()
	if err != nil {
		return &Future{inner: exec.Failed(err), engine: q.engine}
	}
	if ae, ok := q.engine.(asyncEngine); ok {
		inner := ae.ExecuteAsync(plan)
		if _, ok := q.engine.(spillReleaser); ok {
			go func() {
				inner.Wait()
				q.releaseSpill()
			}()
		}
		return &Future{inner: inner, engine: q.engine}
	}
	fut, resolve := exec.NewPromise()
	go func() { resolve(q.engine.Execute(plan)) }()
	return &Future{inner: fut, engine: q.engine}
}

// physicalDescriber matches engines (MODIN) that expose their physical
// strategy decisions — broadcast vs key-shuffled joins, dictionary vs hash
// groupby — for a logical plan.
type physicalDescriber interface {
	DescribePhysical(algebra.Node) string
}

// Explain renders the plan before and after optimization, naming the
// rewrite rules that fired; on engines with a physical planner it appends
// the physical strategy chosen for each repartition point.
func (q *Query) Explain() string {
	if q.err != nil {
		return "error: " + q.err.Error() + "\n"
	}
	out := optimizer.Explain(q.plan, optimizer.Default())
	if d, ok := q.engine.(physicalDescriber); ok {
		if plan, err := q.optimized(); err == nil {
			out += "physical strategy:\n" + d.DescribePhysical(plan)
		}
	}
	return out
}

// Count returns the result's row count. Operators that cannot change the
// row count — sorts over statically-valid keys, elementwise maps — are
// pruned from the optimized plan first, so counting a sorted or
// null-filled frame never pays for the sort or the map; a plan pruned all
// the way to its source answers from metadata without executing at all.
func (q *Query) Count() (int, error) {
	if q.err != nil {
		return 0, q.err
	}
	plan, err := q.optimized()
	if err != nil {
		return 0, err
	}
	plan = pruneForCount(plan)
	if src, ok := plan.(*algebra.Source); ok {
		return src.DF.NRows(), nil
	}
	defer q.releaseSpill()
	out, err := q.engine.Execute(plan)
	if err != nil {
		return 0, err
	}
	return out.NRows(), nil
}

// First returns the result's first row as a 1-row dataframe, computing only
// the ordered 1-prefix: under MODIN the LIMIT touches boundary partitions
// only, and a trailing sort rewrites to TOPK(1).
func (q *Query) First() (*DataFrame, error) {
	if q.err != nil {
		return nil, q.err
	}
	return q.Head(1).Collect()
}

// pruneForCount strips row-count-preserving operators off the plan root:
// label sorts, data sorts whose keys are statically known to exist (an
// invalid key must keep erroring), and label-preserving elementwise maps.
func pruneForCount(plan algebra.Node) algebra.Node {
	for {
		switch n := plan.(type) {
		case *algebra.Sort:
			if !n.ByLabels {
				names := columnsOf(n.Input)
				if names == nil {
					return plan
				}
				for _, key := range n.Order {
					if !containsString(names, key.Col) {
						return plan
					}
				}
			}
			plan = n.Input
		case *algebra.Map:
			if n.Fn.Elementwise == nil || n.Fn.OutCols != nil {
				return plan
			}
			plan = n.Input
		default:
			return plan
		}
	}
}

// Future is an asynchronously-collected query result.
type Future struct {
	inner  *exec.Future
	engine Engine
}

// Wait blocks until the result is available.
func (f *Future) Wait() (*DataFrame, error) {
	v, err := f.inner.Wait()
	if err != nil {
		return nil, err
	}
	return wrap(v.(*core.DataFrame), f.engine), nil
}

// Ready reports whether the result is already available.
func (f *Future) Ready() bool { return f.inner.Ready() }

// Done returns a channel closed when the result lands.
func (f *Future) Done() <-chan struct{} { return f.inner.Done() }

// --- static schema inference ----------------------------------------------

// columnsOf infers the plan's output column labels without executing it
// (nil when not statically derivable); see algebra.OutputColumns. The
// builder uses it to resolve Drop and validate MapCol early.
func columnsOf(n algebra.Node) []string { return algebra.OutputColumns(n) }

// --- shared construction helpers ------------------------------------------

// whereOf builds the structured conjunction from public conditions.
func whereOf(conds []Cond) *expr.Where {
	w := &expr.Where{Terms: make([]expr.WhereTerm, len(conds))}
	for i, c := range conds {
		w.Terms[i] = c.term
	}
	return w
}

// parseAggSpecs resolves public aggregate specs to expression specs.
func parseAggSpecs(specs []AggSpec) ([]expr.AggSpec, error) {
	aggs := make([]expr.AggSpec, len(specs))
	for i, s := range specs {
		kind, ok := expr.ParseAgg(s.Agg)
		if !ok {
			return nil, fmt.Errorf("df: %w %q", dferrors.ErrUnknownAggregate, s.Agg)
		}
		aggs[i] = expr.AggSpec{Col: s.Col, Agg: kind, As: s.As}
	}
	return aggs, nil
}

// parseJoinKind resolves a public join-kind name.
func parseJoinKind(kind string) (expr.JoinKind, error) {
	switch kind {
	case "inner":
		return expr.JoinInner, nil
	case "left":
		return expr.JoinLeft, nil
	case "right":
		return expr.JoinRight, nil
	case "outer":
		return expr.JoinOuter, nil
	}
	return 0, fmt.Errorf("df: %w %q", dferrors.ErrUnknownJoinKind, kind)
}

func containsString(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

func uniqueStrings(names []string) bool {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}
