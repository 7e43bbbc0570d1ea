package df

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/types"
)

func queryFrame(t *testing.T) *DataFrame {
	t.Helper()
	names := []string{"a", "b", "c"}
	records := make([][]any, 0, 60)
	for i := 0; i < 60; i++ {
		var c any = fmt.Sprintf("g%d", i%7)
		if i%11 == 0 {
			c = nil
		}
		records = append(records, []any{int64(i % 17), float64(i%13) + 0.5, c})
	}
	d, err := New(names, records)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLazyCollectMatchesEagerChain(t *testing.T) {
	d := queryFrame(t)
	eager, err := d.Where(Gt("a", Int(3)))
	if err != nil {
		t.Fatal(err)
	}
	eager, err = eager.Select("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	eager, err = eager.SortValues("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := d.Lazy().Where(Gt("a", Int(3))).Select("a", "b").SortValues("a", "b").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !eager.Equal(lazy) {
		t.Fatalf("lazy result differs:\neager:\n%s\nlazy:\n%s", eager, lazy)
	}
}

// TestExplainGoldenFusionChain locks in the full Explain rendering of a
// filter→map→map→select chain: the maps fuse, and the projection sinks
// through the fused map AND the structured selection all the way to the
// source.
func TestExplainGoldenFusionChain(t *testing.T) {
	d := MustNew(
		[]string{"a", "b", "c"},
		[][]any{
			{int64(3), 1.5, "x"},
			{int64(1), 2.5, "y"},
			{int64(2), 0.5, "x"},
			{int64(4), 4.5, "z"},
		},
	)
	got := d.Lazy().
		Where(Gt("a", Int(1))).
		ApplyMap("inc", func(v Value) Value { return v }).
		ApplyMap("dbl", func(v Value) Value { return v }).
		Select("a", "b").
		Explain()
	want := `before:
PROJECTION(a, b)
  MAP(dbl)
    MAP(inc)
      SELECTION(a > 1)
        SOURCE(df, 4x3)
after:
MAP(inc∘dbl)
  SELECTION(a > 1)
    PROJECTION(a, b)
      SOURCE(df, 4x3)
rules fired: map-fusion, push-projection-through-map, push-projection-through-selection
physical strategy:
(no repartition points)
`
	if d.EngineName() == "cluster" {
		// Map closures cannot cross a process boundary; the env-switched
		// cluster harness explains why the plan stays local.
		want += "cluster: local fallback (opaque closure)\n"
	}
	if got != want {
		t.Errorf("explain drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenPushdownChain locks in the filter→select→sort→groupby
// chain of the issue: projection pushdown below the selection fires, and
// the groupby recognizes its sorted input.
func TestExplainGoldenPushdownChain(t *testing.T) {
	d := MustNew(
		[]string{"a", "b", "c"},
		[][]any{
			{int64(3), 1.5, "x"},
			{int64(1), 2.5, "y"},
			{int64(2), 0.5, "x"},
			{int64(4), 4.5, "z"},
		},
	)
	got := d.Lazy().
		Where(Gt("a", Int(1))).
		Select("a", "b").
		SortValues("a").
		GroupBy("a").Sum("b").
		Explain()
	want := `before:
GROUPBY(keys=[a], aggs=[sum(b)])
  SORT(a)
    PROJECTION(a, b)
      SELECTION(a > 1)
        SOURCE(df, 4x3)
after:
GROUPBY(keys=[a], aggs=[sum(b)])
  SORT(a)
    SELECTION(a > 1)
      PROJECTION(a, b)
        SOURCE(df, 4x3)
rules fired: push-projection-through-selection, sorted-groupby
physical strategy:
GROUPBY strategy=hash-shuffle (groups≈1)
`
	if d.EngineName() == "cluster" {
		// sort→groupby is two shuffles; the shippable family carries at
		// most one, so the cluster harness reports the fallback reason.
		want += "cluster: local fallback (double-shuffle)\n"
	}
	if got != want {
		t.Errorf("explain drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainGoldenPrunedScan locks in column pruning from a groupby down
// to a streamed scan: the groupby demands its key and aggregate columns,
// the filter adds the one it reads, and the physical strategy says how many
// columns the scan's cursor materializes.
func TestExplainGoldenPrunedScan(t *testing.T) {
	q := ScanCSVString("a,w,k,x,v\n1,0,p,0,1.5\n,0,q,0,2.5\n3,0,p,0,4\n").
		Where(NotNull("a")).
		GroupBy("k").Sum("v")
	got := q.Explain()
	want := `before:
GROUPBY(keys=[k], aggs=[sum(v)])
  SELECTION(a not null)
    SCAN(csv, 5 cols)
after:
GROUPBY(keys=[k], aggs=[sum(v)])
  PROJECTION(k, v)
    SELECTION(a not null)
      PROJECTION(a, k, v)
        SCAN(csv, 5 cols)
rules fired: prune-groupby-input, push-projection-through-selection
physical strategy:
SCAN strategy=stream (band rows=32768, ≈43 bytes, keep 3/5 cols)
GROUPBY strategy=hash-shuffle (groups≈1)
`
	out, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if out.EngineName() == "cluster" {
		// The env-switched cluster harness ships this shape to its workers.
		want += fmt.Sprintf("cluster: distribute (%s workers)\n", os.Getenv("DF_CLUSTER_WORKERS"))
	}
	if got != want {
		t.Errorf("explain drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	rows, cols := out.Shape()
	if sum, _ := out.Iloc(0, 1); rows != 1 || cols != 2 || sum.Float() != 5.5 {
		t.Errorf("pruned scan result:\n%s", out)
	}
}

// queryOps is the operator pool for the lazy-vs-eager equivalence property
// test: every op is schema-preserving over the a/b/c test frame, so random
// chains compose without column bookkeeping.
type queryOp struct {
	name  string
	eager func(*DataFrame) (*DataFrame, error)
	lazy  func(*Query) *Query
}

func queryOps() []queryOp {
	inc := func(v Value) Value {
		if v.Domain() == types.Int && !v.IsNull() {
			return Int(v.Int() + 1)
		}
		return v
	}
	return []queryOp{
		{
			name:  "where-gt-a",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.Where(Gt("a", Int(5))) },
			lazy:  func(q *Query) *Query { return q.Where(Gt("a", Int(5))) },
		},
		{
			name: "filter-opaque-b",
			eager: func(d *DataFrame) (*DataFrame, error) {
				return d.Filter("b<9", func(r Row) bool { return !r.ByName("b").IsNull() && r.ByName("b").Float() < 9 })
			},
			lazy: func(q *Query) *Query {
				return q.Filter("b<9", func(r Row) bool { return !r.ByName("b").IsNull() && r.ByName("b").Float() < 9 })
			},
		},
		{
			name:  "sort-b",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.SortValues("b") },
			lazy:  func(q *Query) *Query { return q.SortValues("b") },
		},
		{
			name: "sort-desc-a-b",
			eager: func(d *DataFrame) (*DataFrame, error) {
				return d.SortValuesBy([]SortKey{{Col: "a", Desc: true}, {Col: "b"}})
			},
			lazy: func(q *Query) *Query { return q.SortValuesBy([]SortKey{{Col: "a", Desc: true}, {Col: "b"}}) },
		},
		{
			name:  "dropdup-c",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.DropDuplicates("c") },
			lazy:  func(q *Query) *Query { return q.DropDuplicates("c") },
		},
		{
			name:  "applymap-inc",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.ApplyMap("inc", inc) },
			lazy:  func(q *Query) *Query { return q.ApplyMap("inc", inc) },
		},
		{
			name:  "mapcol-b",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.MapCol("b", "neg", negFloat) },
			lazy:  func(q *Query) *Query { return q.MapCol("b", "neg", negFloat) },
		},
		{
			name:  "fillna",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.FillNA(Str("-")) },
			lazy:  func(q *Query) *Query { return q.FillNA(Str("-")) },
		},
		{
			name:  "head-40",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.Head(40), nil },
			lazy:  func(q *Query) *Query { return q.Head(40) },
		},
		{
			name:  "tail-25",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.Tail(25), nil },
			lazy:  func(q *Query) *Query { return q.Tail(25) },
		},
		{
			name:  "dropna",
			eager: func(d *DataFrame) (*DataFrame, error) { return d.DropNA() },
			lazy:  func(q *Query) *Query { return q.DropNA() },
		},
	}
}

func negFloat(v Value) Value {
	if v.Domain() == types.Float && !v.IsNull() {
		return Float(-v.Float())
	}
	return v
}

// TestLazyEagerEquivalenceProperty runs random operator chains through the
// eager method path and the lazy builder on both engines and requires all
// four results to agree — the optimizer and the one-pass collect must be
// invisible to semantics.
func TestLazyEagerEquivalenceProperty(t *testing.T) {
	ops := queryOps()
	rng := rand.New(rand.NewSource(41))
	base := queryFrame(t)
	engines := map[string]Engine{
		"baseline": NewBaselineEngine(),
		"modin":    NewModinEngine(),
	}
	for chain := 0; chain < 10; chain++ {
		n := 3 + rng.Intn(4)
		picked := make([]queryOp, n)
		names := make([]string, n)
		for i := range picked {
			picked[i] = ops[rng.Intn(len(ops))]
			names[i] = picked[i].name
		}
		label := strings.Join(names, "→")

		var results []*DataFrame
		var labels []string
		for engName, eng := range engines {
			d := base.WithEngine(eng)
			eager := d
			var err error
			for _, op := range picked {
				eager, err = op.eager(eager)
				if err != nil {
					t.Fatalf("chain %s eager on %s: %v", label, engName, err)
				}
			}
			q := d.Lazy()
			for _, op := range picked {
				q = op.lazy(q)
			}
			lazy, err := q.Collect()
			if err != nil {
				t.Fatalf("chain %s lazy on %s: %v", label, engName, err)
			}
			results = append(results, eager, lazy)
			labels = append(labels, engName+"/eager", engName+"/lazy")
		}
		for i := 1; i < len(results); i++ {
			if !results[0].Equal(results[i]) {
				t.Fatalf("chain %s: %s differs from %s:\n%s\nvs\n%s",
					label, labels[0], labels[i], results[0], results[i])
			}
		}
	}
}

func TestQueryCountAndFirstFastPaths(t *testing.T) {
	d := queryFrame(t)

	// A bare source answers from metadata.
	if n, err := d.Lazy().Count(); err != nil || n != 60 {
		t.Fatalf("Count() = %d, %v; want 60", n, err)
	}
	// Sorts and elementwise maps prune away.
	if n, err := d.Lazy().SortValues("a").FillNA(Str("-")).Count(); err != nil || n != 60 {
		t.Fatalf("pruned Count() = %d, %v; want 60", n, err)
	}
	// A sort on an unknown column must keep erroring, not be pruned.
	if _, err := d.Lazy().SortValues("ghost").Count(); err == nil {
		t.Error("count over invalid sort should fail")
	}
	// Filters still execute.
	filtered, err := d.Where(Gt("a", Int(5)))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.Lazy().Where(Gt("a", Int(5))).Count(); err != nil || n != filtered.Len() {
		t.Fatalf("filtered Count() = %d, %v; want %d", n, err, filtered.Len())
	}

	first, err := d.Lazy().SortValuesBy([]SortKey{{Col: "b", Desc: true}}).First()
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := d.SortValuesBy([]SortKey{{Col: "b", Desc: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(sorted.Head(1)) {
		t.Errorf("First() differs from sorted head:\n%s\nvs\n%s", first, sorted.Head(1))
	}
}

func TestQueryCollectAsync(t *testing.T) {
	d := queryFrame(t)
	for _, eng := range []Engine{NewModinEngine(), NewBaselineEngine()} {
		q := d.WithEngine(eng).Lazy().Where(Gt("a", Int(3))).Select("a", "b")
		want, err := q.Collect()
		if err != nil {
			t.Fatal(err)
		}
		fut := q.CollectAsync()
		<-fut.Done()
		got, err := fut.Wait()
		if err != nil {
			t.Fatalf("async on %s: %v", eng.Name(), err)
		}
		if !want.Equal(got) {
			t.Errorf("async result differs on %s", eng.Name())
		}
	}
}

func TestQueryStickyErrors(t *testing.T) {
	d := queryFrame(t)
	q := d.Lazy().Drop("ghost").SortValues("a")
	if q.Err() == nil {
		t.Fatal("drop of unknown column should stick")
	}
	if _, err := q.Collect(); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("sticky error should surface at Collect, got %v", err)
	}
	if _, err := q.Count(); err == nil {
		t.Error("sticky error should surface at Count")
	}
	if _, err := q.CollectAsync().Wait(); err == nil {
		t.Error("sticky error should surface at CollectAsync")
	}
	if !strings.Contains(q.Explain(), "ghost") {
		t.Error("Explain should render the sticky error")
	}

	if _, err := ScanCSVFile("/nonexistent/taxi.csv").Select("a").Collect(); err == nil {
		t.Error("scan of missing file should surface at Collect")
	}

	if q := d.Lazy().GroupBy("a").Agg(AggSpec{Col: "b", Agg: "psychic"}); q.Err() == nil {
		t.Error("unknown aggregate should stick")
	}
	if q := d.Lazy().MergeKind(d.Lazy(), "sideways", "a"); q.Err() == nil {
		t.Error("unknown join kind should stick")
	}
	if q := d.Lazy().MapCol("ghost", "x", func(v Value) Value { return v }); q.Err() == nil {
		t.Error("mapcol of unknown column should stick")
	}
	// After a schema-opaque operator, MapCol must refuse rather than
	// silently pass rows through at execution time.
	if q := d.Lazy().T().MapCol("a", "x", func(v Value) Value { return v }); q.Err() == nil {
		t.Error("mapcol after transpose should stick (schema unknown)")
	}
}

// TestDropAndRenameWithDuplicateLabels pins the duplicate-label behaviour
// of the builder against the eager path: a rename that shadows an existing
// label yields duplicate columns, Drop removes every occurrence, and
// Select resolves to the first occurrence on both paths.
func TestDropAndRenameWithDuplicateLabels(t *testing.T) {
	d := queryFrame(t) // columns a, b, c
	kept, err := d.Lazy().Rename(map[string]string{"b": "a"}).Drop("a").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if cols := kept.Columns(); len(cols) != 1 || cols[0] != "c" {
		t.Errorf("drop must remove every duplicate occurrence, got %v", cols)
	}

	lazy, err := d.Lazy().Rename(map[string]string{"b": "a"}).Select("a").Collect()
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := d.Rename(map[string]string{"b": "a"})
	if err != nil {
		t.Fatal(err)
	}
	eager, err := renamed.Select("a")
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Equal(eager) {
		t.Errorf("shadowed select differs between lazy and eager:\n%s\nvs\n%s", lazy, eager)
	}
}

// TestChainedErrorNamesOperator pins the bugfix-sweep behaviour: a failure
// deep inside a collected chain names the operator that failed on both
// engines instead of surfacing a bare kernel error.
func TestChainedErrorNamesOperator(t *testing.T) {
	d := queryFrame(t)
	for _, eng := range []Engine{NewBaselineEngine(), NewModinEngine()} {
		_, err := d.WithEngine(eng).Lazy().
			Where(Gt("a", Int(3))).
			Select("a", "nope").
			SortValues("a").
			Collect()
		if err == nil {
			t.Fatalf("%s: projection of unknown column should fail", eng.Name())
		}
		if !strings.Contains(err.Error(), "PROJECTION(a, nope)") {
			t.Errorf("%s: error should name the failing operator, got: %v", eng.Name(), err)
		}
		_, err = d.WithEngine(eng).Lazy().GroupBy("ghost").Sum("b").Collect()
		if err == nil {
			t.Fatalf("%s: groupby on unknown key should fail", eng.Name())
		}
		if !strings.Contains(err.Error(), "GROUPBY(keys=[ghost]") {
			t.Errorf("%s: error should carry the groupby description, got: %v", eng.Name(), err)
		}
	}
}

func TestScanCSVSources(t *testing.T) {
	const csv = "a,b\n3,x\n1,y\n2,x\n"
	got, err := ScanCSVString(csv).Where(Ne("b", Str("y"))).SortValues("a").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2", got.Len())
	}
	v, err := got.Iloc(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 2 {
		t.Errorf("first sorted row = %v, want 2", v)
	}
	got2, err := ScanCSV(strings.NewReader(csv)).Select("b").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if cols := got2.Columns(); len(cols) != 1 || cols[0] != "b" {
		t.Errorf("columns = %v", cols)
	}
}

func TestTypedSessionModes(t *testing.T) {
	for _, mode := range []Mode{ModeEager, ModeLazy, ModeOpportunistic} {
		s := NewSession(NewModinEngine(), mode)
		h := s.Bind("t", queryFrame(t))
		out, err := h.Collect()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if out.Len() != 60 {
			t.Errorf("mode %v: rows = %d", mode, out.Len())
		}
	}

	if m, err := ParseMode("lazy"); err != nil || m != ModeLazy {
		t.Errorf("ParseMode(lazy) = %v, %v", m, err)
	}
	_, err := ParseMode("psychic")
	var unknown *UnknownModeError
	if !errors.As(err, &unknown) || unknown.Mode != "psychic" {
		t.Errorf("ParseMode should report *UnknownModeError, got %v", err)
	}
	if !errors.Is(err, ErrUnknownMode) {
		t.Errorf("ParseMode failure should match ErrUnknownMode, got %v", err)
	}
}

// TestSessionAcceptsQueryPlans threads a builder plan through each session
// regime and continues a handle through the fluent builder.
func TestSessionAcceptsQueryPlans(t *testing.T) {
	d := queryFrame(t)
	want, err := d.Lazy().Where(Gt("a", Int(5))).Select("a", "b").Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeEager, ModeLazy, ModeOpportunistic} {
		s := NewSession(NewModinEngine(), mode)
		h, err := s.Query("narrow", d.Lazy().Where(Gt("a", Int(5))).Select("a", "b"))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		got, err := h.Collect()
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if !want.Equal(got) {
			t.Errorf("mode %v: session result differs", mode)
		}

		// Continue the statement through the builder.
		h2, err := s.Query("top", h.Lazy().SortValuesBy([]SortKey{{Col: "b", Desc: true}}).Head(3))
		if err != nil {
			t.Fatal(err)
		}
		top, err := h2.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if top.Len() != 3 {
			t.Errorf("mode %v: head rows = %d", mode, top.Len())
		}

		// Sticky builder errors surface when issuing the statement.
		if _, err := s.Query("bad", d.Lazy().Drop("ghost")); err == nil {
			t.Errorf("mode %v: sticky error should surface at Query", mode)
		}
	}
}

// TestConcatSchemaInference pins OutputColumns over UNION: the union
// appends right-only labels, and every schema consumer (Drop, DropNA, the
// rename pushdown guard) must see the combined set.
func TestConcatSchemaInference(t *testing.T) {
	left := MustNew([]string{"k"}, [][]any{{int64(1)}, {int64(2)}})
	right := MustNew([]string{"v"}, [][]any{{int64(8)}, {int64(9)}})

	// Drop of a right-only column must resolve, matching eager Concat+Drop.
	lazyDrop, err := left.Lazy().Concat(right.Lazy()).Drop("v").Collect()
	if err != nil {
		t.Fatal(err)
	}
	cat, err := left.Concat(right)
	if err != nil {
		t.Fatal(err)
	}
	eagerDrop, err := cat.Drop("v")
	if err != nil {
		t.Fatal(err)
	}
	if !lazyDrop.Equal(eagerDrop) {
		t.Errorf("concat+drop differs:\n%s\nvs\n%s", lazyDrop, eagerDrop)
	}

	// DropNA must conjoin over BOTH sides' columns (union rows carry nulls
	// in the non-shared columns).
	lazyNA, err := left.Lazy().Concat(right.Lazy()).DropNA().Collect()
	if err != nil {
		t.Fatal(err)
	}
	eagerNA, err := cat.DropNA()
	if err != nil {
		t.Fatal(err)
	}
	if !lazyNA.Equal(eagerNA) || lazyNA.Len() != 0 {
		t.Errorf("concat+dropna differs: lazy %d rows vs eager %d", lazyNA.Len(), eagerNA.Len())
	}

	// The rename pushdown guard must see the union's v column: renaming it
	// to k creates duplicate labels, so the rewrite declines and the lazy
	// result matches eager first-occurrence resolution.
	lazySel, err := left.Lazy().Concat(right.Lazy()).
		Rename(map[string]string{"v": "k"}).Select("k").Collect()
	if err != nil {
		t.Fatal(err)
	}
	ren, err := cat.Rename(map[string]string{"v": "k"})
	if err != nil {
		t.Fatal(err)
	}
	eagerSel, err := ren.Select("k")
	if err != nil {
		t.Fatal(err)
	}
	if !lazySel.Equal(eagerSel) {
		t.Errorf("shadowed select over union differs:\n%s\nvs\n%s", lazySel, eagerSel)
	}
}

// TestGroupedFrameStatementStyle pins the mutating builder semantics of the
// eager GroupedFrame: AsIndex as a standalone statement must affect the
// later aggregate.
func TestGroupedFrameStatementStyle(t *testing.T) {
	d := queryFrame(t)
	g := d.GroupBy("c")
	g.AsIndex()
	out, err := g.Sum("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range out.Columns() {
		if col == "c" {
			t.Errorf("AsIndex statement ignored: keys still a data column, cols = %v", out.Columns())
		}
	}
}

// TestQueryForking checks immutability: two continuations of one prefix do
// not disturb each other.
func TestQueryForking(t *testing.T) {
	d := queryFrame(t)
	base := d.Lazy().Where(Gt("a", Int(5)))
	left, err := base.Select("a").Collect()
	if err != nil {
		t.Fatal(err)
	}
	right, err := base.Select("b").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if cols := left.Columns(); len(cols) != 1 || cols[0] != "a" {
		t.Errorf("left fork columns = %v", cols)
	}
	if cols := right.Columns(); len(cols) != 1 || cols[0] != "b" {
		t.Errorf("right fork columns = %v", cols)
	}
}

func TestQueryBinaryOps(t *testing.T) {
	d := queryFrame(t)
	both, err := d.Lazy().Head(10).Concat(d.Lazy().Tail(5)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if both.Len() != 15 {
		t.Errorf("concat rows = %d, want 15", both.Len())
	}
	rest, err := d.Lazy().Except(d.Lazy().Head(10)).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rest.Len() >= 60 {
		t.Errorf("except rows = %d, want < 60", rest.Len())
	}

	left := MustNew([]string{"k", "v"}, [][]any{{"a", int64(1)}, {"b", int64(2)}})
	right := MustNew([]string{"k", "w"}, [][]any{{"a", int64(10)}, {"c", int64(30)}})
	joined, err := left.Lazy().Merge(right.Lazy(), "k").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if joined.Len() != 1 {
		t.Errorf("merge rows = %d, want 1", joined.Len())
	}
}
