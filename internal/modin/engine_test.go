package modin

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// testFrame builds a deterministic frame large enough to span several
// partitions.
func testFrame(rows int) *core.DataFrame {
	records := make([][]any, rows)
	for i := range records {
		var dept any = []string{"eng", "ops", "sales"}[i%3]
		var val any = i % 17
		if i%11 == 0 {
			val = nil
		}
		records[i] = []any{i, dept, val, float64(i%7) + 0.5}
	}
	return core.MustFromRecords([]string{"id", "dept", "val", "score"}, records)
}

// bothEngines runs the plan on the baseline and MODIN engines and requires
// identical results — the cross-engine equivalence property behind every
// Figure 2 comparison.
func bothEngines(t *testing.T, plan algebra.Node) *core.DataFrame {
	t.Helper()
	base, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	par, err := New(WithBands(4)).Execute(plan)
	if err != nil {
		t.Fatalf("modin: %v", err)
	}
	if !base.Equal(par) {
		t.Fatalf("engines disagree:\neager:\n%s\nmodin:\n%s", base, par)
	}
	return base
}

func TestEnginesAgreeSelection(t *testing.T) {
	df := testFrame(100)
	out := bothEngines(t, &algebra.Selection{
		Input: &algebra.Source{DF: df},
		Pred:  expr.ColEquals("dept", types.String("eng")),
		Desc:  "dept == eng",
	})
	if out.NRows() != 34 {
		t.Errorf("rows = %d", out.NRows())
	}
}

func TestEnginesAgreeProjection(t *testing.T) {
	df := testFrame(50)
	out := bothEngines(t, &algebra.Projection{Input: &algebra.Source{DF: df}, Cols: []string{"score", "id"}})
	if out.NCols() != 2 || out.ColName(0) != "score" {
		t.Error("projection wrong")
	}
}

func TestEnginesAgreeMapElementwise(t *testing.T) {
	df := testFrame(80)
	out := bothEngines(t, &algebra.Map{Input: &algebra.Source{DF: df}, Fn: algebra.IsNullFn()})
	if !out.Value(0, 2).Bool() { // id=0 row has null val
		t.Error("isnull map wrong")
	}
}

func TestEnginesAgreeMapRowFn(t *testing.T) {
	df := testFrame(60)
	fn := expr.MapFn{
		Name:    "id-plus-score",
		OutCols: []types.Value{types.String("combo")},
		Fn: func(r expr.Row) []types.Value {
			return []types.Value{types.FloatValue(float64(r.ByName("id").Int()) + r.ByName("score").Float())}
		},
	}
	out := bothEngines(t, &algebra.Map{Input: &algebra.Source{DF: df}, Fn: fn})
	if out.NCols() != 1 || out.Value(3, 0).Float() != 3+3.5 {
		t.Errorf("row map wrong: %v", out.Value(3, 0))
	}
}

// TestMalformedMapFnFailsCleanly requires every MapFn whose declared
// domains or variants do not fit its output to come back as an error from
// both engines, never as a panic (the eager engine does not recover one).
func TestMalformedMapFnFailsCleanly(t *testing.T) {
	df := testFrame(20) // four columns
	same := func(v types.Value) types.Value { return v }
	row := func(n int) func(expr.Row) []types.Value {
		return func(expr.Row) []types.Value { return make([]types.Value, n) }
	}
	bulk := func(v vector.Vector) vector.Vector { return v }
	labels := []types.Value{types.String("x"), types.String("y")}
	two := []types.Domain{types.Int, types.Int}
	cases := map[string]expr.MapFn{
		"no-function":                    {},
		"two-functions":                  {Elementwise: same, Fn: row(4)},
		"elementwise-two-domains":        {Elementwise: same, OutDoms: two},
		"row-fewer-domains-than-labels":  {Fn: row(2), OutCols: labels, OutDoms: []types.Domain{types.Int}},
		"group-more-domains-than-labels": {GroupFn: row(2), OutCols: labels[:1], OutDoms: two},
		"row-domains-not-input-arity":    {Fn: row(4), OutDoms: two},
		"row-empty-domains":              {Fn: row(4), OutDoms: []types.Domain{}},
		"column-without-elementwise":     {Fn: row(4), Column: bulk, OutDoms: []types.Domain{types.Int, types.Int, types.Int, types.Int}},
		"column-without-domain":          {Elementwise: same, Column: bulk},
		"elementwise-wrong-label-count":  {Elementwise: same, OutCols: labels},
	}
	engines := map[string]algebra.Engine{"eager": eager.New(), "modin": New(WithBands(2))}
	for name, fn := range cases {
		fn.Name = name
		for ename, e := range engines {
			t.Run(name+"/"+ename, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if _, err := e.Execute(&algebra.Map{Input: &algebra.Source{DF: df}, Fn: fn}); err == nil {
					t.Error("malformed MapFn executed without error")
				}
			})
		}
	}

	// An empty elementwise OutDoms declares nothing: it runs, unpanicked,
	// exactly like an undeclared one.
	fn := expr.MapFn{Name: "empty-domains", Elementwise: same, OutDoms: []types.Domain{}}
	out := bothEngines(t, &algebra.Map{Input: &algebra.Source{DF: df}, Fn: fn})
	if !out.Equal(df) {
		t.Error("identity MAP with empty OutDoms changed the frame")
	}
}

func TestEnginesAgreeGroupBy(t *testing.T) {
	df := testFrame(200)
	out := bothEngines(t, &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Keys: []string{"dept"},
			Aggs: []expr.AggSpec{
				{Col: "val", Agg: expr.AggCount, As: "n"},
				{Col: "val", Agg: expr.AggSum, As: "total"},
				{Col: "score", Agg: expr.AggMean, As: "avg"},
				{Col: "val", Agg: expr.AggMin, As: "lo"},
				{Col: "val", Agg: expr.AggMax, As: "hi"},
			},
		},
	})
	if out.NRows() != 3 {
		t.Errorf("groups = %d", out.NRows())
	}
}

func TestEnginesAgreeGroupByOneGroup(t *testing.T) {
	// The groupby(1) query of Figure 2: whole-frame aggregation.
	df := testFrame(150)
	out := bothEngines(t, &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggCount, As: "nonnull"}},
		},
	})
	if out.NRows() != 1 {
		t.Fatalf("rows = %d", out.NRows())
	}
	if out.Value(0, 0).Int() != 150-14 { // 14 nulls at i%11==0
		t.Errorf("count = %v", out.Value(0, 0))
	}
}

func TestEnginesAgreeTranspose(t *testing.T) {
	df := testFrame(40)
	bothEngines(t, &algebra.Transpose{Input: &algebra.Source{DF: df}})
}

// TestEnginesAgreeTransposeDeclaredSchema: a declared schema types each
// output column from the input row it came from, whichever row band held
// that row — including domains induction would not pick (digits declared
// float and object).
func TestEnginesAgreeTransposeDeclaredSchema(t *testing.T) {
	df := core.MustFromRecords([]string{"a", "b", "c"}, [][]any{
		{"1", "2", "3"}, {"4", "5", "6"}, {"7", "8", "9"}, {"x", "y", "z"},
	})
	schema := []types.Domain{types.Float, types.Object, types.Int, types.Object}
	plan := &algebra.Transpose{Input: &algebra.Source{DF: df}, Schema: schema}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, bands := range []int{1, 2, 7} {
		got, err := New(WithBands(bands)).Execute(plan)
		if err != nil {
			t.Fatalf("%d bands: %v", bands, err)
		}
		if !got.Equal(want) {
			t.Errorf("%d bands: engines disagree:\neager %v:\n%s\nmodin %v:\n%s", bands, want.Domains(), want, got.Domains(), got)
		}
	}
	short := &algebra.Transpose{Input: &algebra.Source{DF: df}, Schema: schema[:2]}
	if _, err := New(WithBands(2)).Execute(short); err == nil {
		t.Error("a schema shorter than the input's rows should fail")
	}
}

func TestEnginesAgreeDoubleTranspose(t *testing.T) {
	df := testFrame(30)
	out := bothEngines(t, &algebra.Transpose{Input: &algebra.Transpose{Input: &algebra.Source{DF: df}}})
	if !out.Equal(df) {
		t.Error("double transpose should recover the frame")
	}
}

func TestEnginesAgreeWindow(t *testing.T) {
	df := testFrame(90)
	for _, spec := range []expr.WindowSpec{
		{Kind: expr.WindowShift, Offset: 3, Cols: []string{"id"}},
		{Kind: expr.WindowDiff, Offset: 1, Cols: []string{"id"}},
		{Kind: expr.WindowRolling, Size: 5, Agg: expr.AggMean, Cols: []string{"score"}},
		{Kind: expr.WindowExpanding, Agg: expr.AggMax, Cols: []string{"id"}},
		{Kind: expr.WindowShift, Offset: 2, Reverse: true, Cols: []string{"id"}},
	} {
		t.Run(fmt.Sprintf("kind=%d", spec.Kind), func(t *testing.T) {
			bothEngines(t, &algebra.Window{Input: &algebra.Source{DF: df}, Spec: spec})
		})
	}

	// Bounded windows that read ahead of the scan, or further back than
	// the adjacent band holds, must equal eager cell for cell and in every
	// domain: at 1, 2 and 7 bands and on a one-worker pool.
	one := exec.NewPool(1)
	defer one.Close()
	engines := map[string]*Engine{
		"bands=1": New(WithBands(1)), "bands=2": New(WithBands(2)), "bands=7": New(WithBands(7)),
		"1worker": New(WithPool(one), WithBands(7)),
	}
	for _, c := range []struct {
		name string
		rows int
		spec expr.WindowSpec
	}{
		{"shift -1", 90, expr.WindowSpec{Kind: expr.WindowShift, Offset: -1}},
		{"diff -1", 90, expr.WindowSpec{Kind: expr.WindowDiff, Offset: -1}},
		{"reverse diff -1", 90, expr.WindowSpec{Kind: expr.WindowDiff, Offset: -1, Reverse: true, Cols: []string{"id"}}},
		{"shift 5", 20, expr.WindowSpec{Kind: expr.WindowShift, Offset: 5}},
		{"diff 4", 20, expr.WindowSpec{Kind: expr.WindowDiff, Offset: 4}},
		{"rolling 6", 20, expr.WindowSpec{Kind: expr.WindowRolling, Size: 6, MinPeriods: 2, Agg: expr.AggSum, Cols: []string{"id", "val"}}},
		{"reverse shift 5", 20, expr.WindowSpec{Kind: expr.WindowShift, Offset: 5, Reverse: true}},
		{"reverse shift -4", 20, expr.WindowSpec{Kind: expr.WindowShift, Offset: -4, Reverse: true}},
		{"reverse rolling 6", 20, expr.WindowSpec{Kind: expr.WindowRolling, Size: 6, Reverse: true, Agg: expr.AggMax, Cols: []string{"score"}}},
	} {
		for name, e := range engines {
			t.Run(fmt.Sprintf("%s over %d rows/%s", c.name, c.rows, name), func(t *testing.T) {
				// A fresh input per run: a column another run induced on a
				// shared frame changes what eager declares for it.
				assertBitIdentical(t, e, &algebra.Window{Input: &algebra.Source{DF: testFrame(c.rows)}, Spec: c.spec})
			})
		}
	}

	// A selection that empties a middle band: band 3's shift reads past it
	// into band 1, on a four-worker pool at its default four bands.
	t.Run("emptied middle band", func(t *testing.T) {
		four := exec.NewPool(4)
		defer four.Close()
		keep := func(r expr.Row) bool { id := r.ByName("id").Int(); return id < 4000 || id >= 6000 }
		assertBitIdentical(t, New(WithPool(four)), &algebra.Window{
			Input: &algebra.Selection{Input: &algebra.Source{DF: testFrame(8000)}, Pred: keep, Desc: "not the third quarter"},
			Spec:  expr.WindowSpec{Kind: expr.WindowShift, Offset: 1},
		})
	})
}

// assertBitIdentical runs plan on e and on the eager engine and requires
// bitDiff-identical results: cells, declared domains and row labels.
func assertBitIdentical(t *testing.T, e *Engine, plan algebra.Node) {
	t.Helper()
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	got, err := e.Execute(plan)
	if err != nil {
		t.Fatalf("modin: %v", err)
	}
	if d := bitDiff(want, got, false); d != "" {
		t.Fatalf("modin differs from eager: %s", d)
	}
}

func TestEnginesAgreeJoin(t *testing.T) {
	left := testFrame(60)
	right := core.MustFromRecords([]string{"dept", "head"}, [][]any{
		{"eng", "grace"}, {"ops", "ada"},
	})
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft, expr.JoinOuter} {
		t.Run(kind.String(), func(t *testing.T) {
			bothEngines(t, &algebra.Join{
				Left:  &algebra.Source{DF: left},
				Right: &algebra.Source{DF: right},
				Kind:  kind,
				On:    []string{"dept"},
			})
		})
	}
}

// TestAnchoredPassesOnOneWorker chains the three anchored passes that read
// other bands — a data-column join's renumber, FROMLABELS and a shift — on
// a one-worker pool at 7 bands, where a merge that waited on a band future
// it does not depend on would hang, and requires eager's frame bit for bit.
func TestAnchoredPassesOnOneWorker(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	heads := core.MustFromRecords([]string{"dept", "head"}, [][]any{{"eng", "grace"}, {"ops", "ada"}})
	join := &algebra.Join{Left: &algebra.Source{DF: testFrame(60)}, Right: &algebra.Source{DF: heads}, Kind: expr.JoinInner, On: []string{"dept"}}
	assertBitIdentical(t, New(WithPool(one), WithBands(7)), &algebra.Window{
		Input: &algebra.FromLabels{Input: join, Label: "pos"},
		Spec:  expr.WindowSpec{Kind: expr.WindowShift, Offset: 2},
	})
}

// sortKeysFrame is a frame whose sort keys carry what the typed SORT kernel
// encodes specially: fk is Float with NaN payloads, -0, +0 and masked nulls;
// ik is Int with nulls; mk holds whole numbers in its first half and
// fractions after, so a streamed scan induces it Int in early bands and
// Float in late ones; dept is Object strings, which have no word form; cat
// is a Dict whose one category table every band shares; ts is Datetime
// with nulls in its first eighth only, so some bands' runs can be null and
// others not; flag is Bool with nulls; same is one value on every row, so
// every row ties.
func sortKeysFrame(rows int) *core.DataFrame {
	id, ik, ts := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	fk, mk := make([]float64, rows), make([]float64, rows)
	dept := make([]string, rows)
	cat, same := make([]int32, rows), make([]int64, rows)
	flag := make([]bool, rows)
	fnulls, inulls, tnulls, bnulls := make([]bool, rows), make([]bool, rows), make([]bool, rows), make([]bool, rows)
	for i := range id {
		id[i], ik[i] = int64(i), int64(i%5-2)
		fk[i] = []float64{1.5, math.Copysign(0, -1), 0, math.NaN(), -2, 0}[i%6]
		fnulls[i], inulls[i] = i%7 == 3, i%4 == 1
		mk[i] = float64(i % 5)
		if i >= rows/2 {
			mk[i] += 0.5
		}
		dept[i] = []string{"eng", "ops", "sales"}[i%3]
		cat[i] = int32(i * 7 % 4)
		ts[i], tnulls[i] = int64(i%6-3)*3_600_000_000_000, i < rows/8 && i%2 == 0
		flag[i], bnulls[i] = i%3 == 0, i%11 == 5
		same[i] = 42
	}
	return core.MustNew([]string{"id", "fk", "ik", "mk", "dept", "cat", "ts", "flag", "same"}, []vector.Vector{
		vector.NewInt(id, nil), vector.NewFloat(fk, fnulls), vector.NewInt(ik, inulls),
		vector.NewFloat(mk, nil), vector.NewObject(dept, nil),
		vector.NewDict(cat, []string{"plum", "fig", "apple", "kiwi"}, nil),
		vector.NewDatetime(ts, tnulls), vector.NewBool(flag, bnulls), vector.NewInt(same, nil),
	})
}

// sortKeysOrders are the orders the cross-path SORT tests run over
// sortKeysFrame.
var sortKeysOrders = []expr.SortOrder{
	{{Col: "fk"}},
	{{Col: "ik", Desc: true}, {Col: "fk"}},
	{{Col: "mk"}, {Col: "id", Desc: true}},
	{{Col: "dept"}, {Col: "fk", Desc: true}},
	{{Col: "cat", Desc: true}, {Col: "ts"}},
	{{Col: "ts", Desc: true}, {Col: "flag"}},
	{{Col: "same"}},
}

// assertSortMatchesOracle runs the SORT plan on e and requires the frame the
// definition gives: the plan's input, executed eagerly, stably sorted by
// vector.CompareRows key by key. The eager engine runs the same SORT kernel
// as MODIN's bands, so it cannot be the reference for it. It returns the
// oracle's frame and e's.
func assertSortMatchesOracle(t *testing.T, e *Engine, plan *algebra.Sort) (want, got *core.DataFrame) {
	t.Helper()
	in, err := eager.New().Execute(plan.Input)
	if err != nil {
		t.Fatalf("eager input: %v", err)
	}
	keys := make([]vector.Vector, len(plan.Order))
	for k, o := range plan.Order {
		keys[k] = in.TypedCol(in.ColIndex(o.Col))
	}
	idx := make([]int, in.NRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, o := range plan.Order {
			c := vector.CompareRows(keys[k], idx[a], keys[k], idx[b])
			if o.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	want = in.TakeRows(idx)
	got, err = e.Execute(plan)
	if err != nil {
		t.Fatalf("modin: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("SORT%v differs from the oracle:\noracle:\n%s\nmodin:\n%s", plan.Order, want, got)
	}
	return want, got
}

func TestEnginesAgreeSortUnionDiffDropdup(t *testing.T) {
	df := testFrame(70)
	one := exec.NewPool(1)
	defer one.Close()
	// Each engine is made per case: a spill budget keeps per-engine state.
	type engine struct {
		name string
		make func() *Engine
	}
	engines := []engine{{"bands=7/1worker", func() *Engine { return New(WithPool(one), WithBands(7)) }}}
	for _, bands := range []int{1, 2, 7} {
		engines = append(engines,
			engine{fmt.Sprintf("bands=%d", bands), func() *Engine { return New(WithBands(bands)) }},
			engine{fmt.Sprintf("bands=%d/spill", bands), func() *Engine { return New(WithBands(bands), WithShuffleSpillBudget(1)) }})
	}
	for _, in := range []*core.DataFrame{df, sortKeysFrame(90)} {
		orders := sortKeysOrders
		if in == df {
			orders = []expr.SortOrder{{{Col: "dept"}, {Col: "id", Desc: true}}}
		}
		for _, order := range orders {
			for _, e := range engines {
				t.Run(fmt.Sprintf("%v/%s", order, e.name), func(t *testing.T) {
					want, got := assertSortMatchesOracle(t, e.make(), &algebra.Sort{Input: &algebra.Source{DF: in}, Order: order})
					// testFrame's dept is untyped strings, whose declared
					// domain depends on the rows it is induced over
					// (TestUntypedStringDomainsDependOnBands); every column
					// of sortKeysFrame is typed.
					if d := bitDiff(want, got, false); in != df && d != "" {
						t.Fatalf("SORT%v: %s", order, d)
					}
				})
			}
		}
	}
	bothEngines(t, &algebra.Union{Left: &algebra.Source{DF: df.SliceRows(0, 30)}, Right: &algebra.Source{DF: df.SliceRows(30, 70)}})
	bothEngines(t, &algebra.Difference{Left: &algebra.Source{DF: df}, Right: &algebra.Source{DF: df.SliceRows(0, 35)}})
	bothEngines(t, &algebra.DropDuplicates{Input: &algebra.Source{DF: df}, Subset: []string{"dept", "val"}})
}

func TestEnginesAgreeLabelsOps(t *testing.T) {
	df := testFrame(45)
	bothEngines(t, &algebra.ToLabels{Input: &algebra.Source{DF: df}, Col: "id"})
	bothEngines(t, &algebra.FromLabels{Input: &algebra.Source{DF: df}, Label: "rowid"})
	bothEngines(t, &algebra.Rename{Input: &algebra.Source{DF: df}, Mapping: map[string]string{"dept": "team"}})
}

func TestEnginesAgreeLimit(t *testing.T) {
	df := testFrame(100)
	head := bothEngines(t, &algebra.Limit{Input: &algebra.Source{DF: df}, N: 7})
	if head.NRows() != 7 || head.Value(0, 0).Int() != 0 {
		t.Error("head wrong")
	}
	tail := bothEngines(t, &algebra.Limit{Input: &algebra.Source{DF: df}, N: -7})
	if tail.NRows() != 7 || tail.Value(6, 0).Int() != 99 {
		t.Error("tail wrong")
	}
}

func TestEnginesAgreeComposedPipeline(t *testing.T) {
	// A multi-operator pipeline mirroring a realistic session.
	df := testFrame(120)
	plan := &algebra.GroupBy{
		Input: &algebra.Selection{
			Input: &algebra.Map{
				Input: &algebra.Source{DF: df},
				Fn:    algebra.FillNAFn(types.IntValue(-1)),
			},
			Pred: expr.ColNotNull("dept"),
			Desc: "dept not null",
		},
		Spec: expr.GroupBySpec{
			Keys: []string{"dept"},
			Aggs: []expr.AggSpec{{Col: "val", Agg: expr.AggSum, As: "s"}},
		},
	}
	bothEngines(t, plan)
}

// TestModinPartitionedLimitTouchesOnlyBoundary: LIMIT keeps its input's
// band count, and only the boundary band holds rows — band 0 for a head,
// the last band for a tail.
func TestModinPartitionedLimitTouchesOnlyBoundary(t *testing.T) {
	df := testFrame(1000)
	e := New(WithBands(8))
	for _, c := range []struct {
		n, full int
	}{{5, 0}, {-5, 7}} {
		pf, err := e.ExecutePartitioned(&algebra.Limit{Input: &algebra.Source{DF: df}, N: c.n})
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.Resolve(); err != nil {
			t.Fatal(err)
		}
		if pf.RowBands() != 8 {
			t.Errorf("limit %d: %d bands, want the input's 8", c.n, pf.RowBands())
		}
		for r := 0; r < pf.RowBands(); r++ {
			want := 0
			if r == c.full {
				want = 5
			}
			if got := pf.Band(r).NRows(); got != want {
				t.Errorf("limit %d: band %d holds %d rows, want %d", c.n, r, got, want)
			}
		}
	}
}

func TestModinTransposeWideResult(t *testing.T) {
	// A tall frame becomes a wide one: 500 columns after transpose, the
	// "billions of columns" path at test scale.
	df := testFrame(500)
	e := New(WithBands(4))
	out, err := e.Execute(&algebra.Transpose{Input: &algebra.Source{DF: df}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NCols() != 500 || out.NRows() != 4 {
		t.Errorf("shape = %dx%d", out.NRows(), out.NCols())
	}
}

func TestModinUnknownNode(t *testing.T) {
	e := New()
	if _, err := e.Execute(nil); err == nil {
		t.Error("nil plan should error")
	}
}

func TestEagerBudgetFailsTranspose(t *testing.T) {
	// The pandas transpose failure mode of Figure 2: the baseline engine
	// refuses transposes above its budget while MODIN completes them.
	df := testFrame(100)
	limited := &eager.Engine{TransposeCellBudget: 100}
	_, err := limited.Execute(&algebra.Transpose{Input: &algebra.Source{DF: df}})
	if err == nil {
		t.Fatal("budgeted transpose should fail")
	}
	if _, err := New().Execute(&algebra.Transpose{Input: &algebra.Source{DF: df}}); err != nil {
		t.Fatalf("modin transpose should succeed: %v", err)
	}
}

func TestModinWithExplicitPool(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool), WithBands(2))
	if e.Pool() != pool {
		t.Error("pool accessor wrong")
	}
	df := testFrame(20)
	out, err := e.Execute(&algebra.Source{DF: df})
	if err != nil || !out.Equal(df) {
		t.Error("source execution should round-trip")
	}
}
