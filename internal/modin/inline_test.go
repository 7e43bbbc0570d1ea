package modin

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/workload"
)

// namedPlan is one benchmarked statement.
type namedPlan struct {
	name string
	plan algebra.Node
}

// crossoverStatements are the five short statement shapes of paperbench's
// inmem_small workload over src, optimized as Collect optimizes them: a
// keyless count, a size by key, a filter, a filter → projection → head and a
// sort → head.
func crossoverStatements(src algebra.Node) []namedPlan {
	plans := []namedPlan{
		{"groupby_1", &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "passenger_count", Agg: expr.AggCount, As: "passenger_count_count"}},
		}}},
		{"groupby_n", &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
			Keys: []string{"passenger_count"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize, As: "size"}},
		}}},
		{"where_count", &algebra.Selection{Input: src,
			Where: expr.WhereCompare("trip_distance", vector.CmpGt, types.FloatValue(10))}},
		{"filter_head", &algebra.Limit{N: 10, Input: &algebra.Projection{
			Cols:  []string{"vendor_id", "fare_amount", "tip_amount"},
			Input: &algebra.Selection{Input: src, Where: expr.WhereEquals("payment_type", types.String("cash"))},
		}}},
		{"topk", &algebra.Limit{N: 10, Input: &algebra.Sort{Input: src, Order: expr.SortOrder{{Col: "total_amount"}}}}},
	}
	for i := range plans {
		plans[i].plan, _ = optimizer.Optimize(plans[i].plan, optimizer.Default())
	}
	return plans
}

// crossoverPairs are two-source statements over a and b, each half the
// rows the inline rule sums: a size by key over their union, and a 1:1 inner
// join on the pickup time (a and b are the same trips in two frames).
func crossoverPairs(a, b algebra.Node) []namedPlan {
	fares := &algebra.Rename{Mapping: map[string]string{"fare_amount": "fare_b"},
		Input: &algebra.Projection{Input: b, Cols: []string{"pickup_datetime", "fare_amount"}}}
	return []namedPlan{
		{"union_size", &algebra.GroupBy{Input: &algebra.Union{Left: a, Right: b}, Spec: expr.GroupBySpec{
			Keys: []string{"passenger_count"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize, As: "size"}},
		}}},
		{"join_1to1", &algebra.Join{Left: a, Right: fares, Kind: expr.JoinInner, On: []string{"pickup_datetime"}}},
	}
}

// BenchmarkInlineCrossover times each inmem_small statement shape, and two
// two-source shapes, as one tree walk on the caller (walk: the walk Execute
// runs for a plan under inlineRows, timed here at every size) against the
// task DAG at one band per pool worker (dag), from 512 to 16,384 source rows
// in total. inlineRows is the largest power of two at which the walk still
// beats the DAG on every shape, at GOMAXPROCS 1 and 2:
//
//	GOMAXPROCS=2 go test -run '^$' -bench InlineCrossover -benchmem ./internal/modin
func BenchmarkInlineCrossover(b *testing.B) {
	dag := New(WithBands(exec.Default.Workers()))
	taxi := func(rows int) *algebra.Source {
		return &algebra.Source{DF: workload.Taxi(workload.DefaultTaxiOptions(rows)), Name: "taxi"}
	}
	for _, rows := range []int{512, 1024, 2048, 4096, 8192, 16384} {
		statements := append(crossoverStatements(taxi(rows)), crossoverPairs(taxi(rows/2), taxi(rows/2))...)
		for _, st := range statements {
			b.Run(fmt.Sprintf("%s/rows=%d/walk", st.name, rows), func(b *testing.B) {
				for b.Loop() {
					if _, err := walk(st.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/rows=%d/dag", st.name, rows), func(b *testing.B) {
				for b.Loop() {
					if _, err := dag.Execute(st.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// inlineFrames are the small inputs of the inline ≡ DAG table: the taxi
// frame (Dict, Datetime, Int and Float with nulls, Category) with a distinct
// Object note per trip, every domain induced over the whole frame; a keyed
// dimension frame with a null key; and an untyped copy of the taxi frame for
// INDUCE. A string column left untyped is induced per band on the DAG, which
// can declare Object where the whole column induces Category: that band
// dependence predates the walk, so this table types its inputs first and
// TestUntypedStringDomainsDependOnBands pins it apart.
func inlineFrames(rows int) (taxi, dim, raw *algebra.Source) {
	opts := workload.TaxiOptions{Rows: rows, Seed: 34, NullFraction: 0.2}
	trips := workload.Taxi(opts)
	notes := make([]string, rows)
	for i := range notes {
		notes[i] = fmt.Sprintf("trip-%03d", i)
	}
	trips = core.MustNew(append(trips.ColNames(), "note"), append(slices.Clone(trips.Columns()), vector.NewObjectFromStrings(notes)))
	taxi = &algebra.Source{DF: algebra.InduceFrame(trips), Name: "taxi"}
	opts.Raw = true
	raw = &algebra.Source{DF: workload.Taxi(opts), Name: "raw"}
	dim = &algebra.Source{DF: algebra.InduceFrame(core.MustFromRecords([]string{"passenger_count", "label"}, [][]any{
		{int64(1), "one"}, {int64(2), "two"}, {nil, "none"}, {int64(3), "three"}, {int64(2), "pair"}, {int64(9), "nine"},
	})), Name: "dim"}
	return taxi, dim, raw
}

// inlinePlans is one plan per operator Compile lowers, over small inputs.
func inlinePlans(taxi, dim, raw algebra.Node) map[string]algebra.Node {
	by := func(col string, desc bool) expr.SortOrder { return expr.SortOrder{{Col: col, Desc: desc}} }
	groupBy := func(in algebra.Node, aggs ...expr.AggSpec) algebra.Node {
		return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: []string{"vendor_id"}, Aggs: aggs}}
	}
	join := func(kind expr.JoinKind) algebra.Node {
		return &algebra.Join{Left: taxi, Right: dim, Kind: kind, On: []string{"passenger_count"}}
	}
	narrow := &algebra.Projection{Input: taxi, Cols: []string{"vendor_id", "passenger_count", "total_amount"}}
	cash := &algebra.Selection{Input: taxi, Where: expr.WhereEquals("payment_type", types.String("cash"))}
	window := func(spec expr.WindowSpec) algebra.Node {
		spec.Cols = []string{"trip_distance", "tip_amount"}
		return &algebra.Window{Input: taxi, Spec: spec}
	}
	return map[string]algebra.Node{
		"select where": &algebra.Selection{Input: taxi, Where: expr.WhereCompare("trip_distance", vector.CmpGt, types.FloatValue(8))},
		"select pred": &algebra.Selection{Input: taxi, Desc: "odd passengers", Pred: func(r expr.Row) bool {
			v := r.Value(2)
			return !v.IsNull() && v.Int()%2 == 1
		}},
		"project": narrow,
		"map elementwise": &algebra.Map{Input: narrow, Fn: expr.MapFn{Name: "isnull", Elementwise: func(v types.Value) types.Value {
			return types.BoolValue(v.IsNull())
		}}},
		"map row": &algebra.Map{Input: taxi, Fn: expr.MapFn{Name: "tip share", OutCols: []types.Value{types.String("share")},
			Fn: func(r expr.Row) []types.Value {
				tip, total := r.Value(6), r.Value(7)
				if tip.IsNull() {
					return []types.Value{types.Null()}
				}
				return []types.Value{types.FloatValue(tip.Float() / total.Float())}
			}}},
		"rename": &algebra.Rename{Input: taxi, Mapping: map[string]string{"vendor_id": "vendor", "tip_amount": "tip"}},
		"groupby exact-combine": groupBy(taxi,
			expr.AggSpec{Col: "passenger_count", Agg: expr.AggCount, As: "n"},
			expr.AggSpec{Agg: expr.AggSize, As: "size"},
			expr.AggSpec{Col: "pickup_datetime", Agg: expr.AggMin, As: "first"},
			expr.AggSpec{Col: "store_and_fwd_flag", Agg: expr.AggMax, As: "flag"}),
		"groupby sum mean": groupBy(taxi,
			expr.AggSpec{Col: "tip_amount", Agg: expr.AggSum, As: "tips"},
			expr.AggSpec{Col: "passenger_count", Agg: expr.AggMean, As: "avg"}),
		"groupby keyless": &algebra.GroupBy{Input: taxi, Spec: expr.GroupBySpec{
			Aggs: []expr.AggSpec{{Col: "passenger_count", Agg: expr.AggCount, As: "n"}}}},
		"sort":             &algebra.Sort{Input: taxi, Order: expr.SortOrder{{Col: "payment_type"}, {Col: "trip_distance", Desc: true}}},
		"topk":             &algebra.TopK{Input: taxi, Order: by("total_amount", true), N: 7},
		"join inner":       join(expr.JoinInner),
		"join left":        join(expr.JoinLeft),
		"join outer":       join(expr.JoinOuter),
		"join cross":       &algebra.Join{Left: &algebra.Limit{Input: narrow, N: 6}, Right: dim, Kind: expr.JoinCross},
		"union":            &algebra.Union{Left: taxi, Right: cash},
		"difference":       &algebra.Difference{Left: taxi, Right: cash},
		"dropdup":          &algebra.DropDuplicates{Input: taxi, Subset: []string{"vendor_id", "payment_type"}},
		"window shift":     window(expr.WindowSpec{Kind: expr.WindowShift, Offset: 2}),
		"window rolling":   window(expr.WindowSpec{Kind: expr.WindowRolling, Size: 3, Agg: expr.AggSum}),
		"window diff up":   window(expr.WindowSpec{Kind: expr.WindowDiff, Offset: 1, Reverse: true}),
		"window expanding": window(expr.WindowSpec{Kind: expr.WindowExpanding, Agg: expr.AggMax}),
		"transpose":        &algebra.Transpose{Input: &algebra.Limit{Input: narrow, N: 9}},
		"limit":            &algebra.Limit{Input: cash, N: 5},
		"tail":             &algebra.Limit{Input: cash, N: -5},
		"fromlabels": &algebra.FromLabels{Label: "vendor", Input: &algebra.Sort{Input: &algebra.ToLabels{Input: narrow, Col: "vendor_id"},
			Order: by("total_amount", false)}},
		"induce": &algebra.Induce{Input: raw},
	}
}

// sameFrame reports whether two results agree cell for cell, in their
// declared domains, and in their row labels.
func sameFrame(a, b *core.DataFrame) bool {
	return a.Equal(b) && slices.Equal(a.Domains(), b.Domains()) &&
		a.RowLabels().Domain() == b.RowLabels().Domain()
}

// scheduledTasks counts the stages a run's scheduler put on the pool: zero
// means the plan ran inline.
func scheduledTasks(sched *physical.Scheduler) int64 {
	st := &sched.Stats
	return st.FusedStages.Load() + st.ExchangeStages.Load() + st.ShuffleStages.Load() + st.StreamStages.Load()
}

// TestInlineMatchesTaskDAG runs every operator over small frames inline (the
// default engine) and on the task DAG at 1, 2 and 7 bands, and requires
// identical results.
func TestInlineMatchesTaskDAG(t *testing.T) {
	taxi, dim, raw := inlineFrames(60)
	dags := map[string]*Engine{
		"bands=1": New(WithBands(1)),
		"bands=2": New(WithBands(2)),
		"bands=7": New(WithBands(7)),
	}
	for name, plan := range inlinePlans(taxi, dim, raw) {
		t.Run(name, func(t *testing.T) {
			res, sched, err := New().Schedule(plan)
			if err != nil {
				t.Fatal(err)
			}
			if n := scheduledTasks(sched); n != 0 {
				t.Fatalf("inline run scheduled %d stages", n)
			}
			pf, err := res.Frame()
			if err != nil {
				t.Fatal(err)
			}
			want, err := pf.ToFrame()
			if err != nil {
				t.Fatal(err)
			}
			for dname, e := range dags {
				got, err := e.Execute(plan)
				if err != nil {
					t.Fatalf("%s: %v", dname, err)
				}
				if !sameFrame(want, got) {
					t.Errorf("%s disagrees with inline:\ninline %v:\n%s\n%s %v:\n%s", dname, want.Domains(), want, dname, got.Domains(), got)
				}
			}
		})
	}
}

// TestInlineBoundary pins the inline rule: sources holding at most
// inlineRows rows between them run inline, a shared source counted once;
// one row more, in one source or summed over two, runs the DAG; so does any
// scan, and any engine with explicit bands.
func TestInlineBoundary(t *testing.T) {
	at := &algebra.Source{DF: testFrame(inlineRows)}
	over := &algebra.Source{DF: testFrame(inlineRows + 1)}
	half := &algebra.Source{DF: testFrame(inlineRows / 2)}
	otherHalf := &algebra.Source{DF: testFrame(inlineRows / 2)}
	halfAndOne := &algebra.Source{DF: testFrame(inlineRows/2 + 1)}
	small := &algebra.Source{DF: testFrame(10)}
	pick := func(in algebra.Node) algebra.Node {
		return &algebra.Selection{Input: in, Where: expr.WhereEquals("dept", types.String("ops"))}
	}
	join := func(left, right algebra.Node) algebra.Node {
		return &algebra.Join{Left: left, Right: right, Kind: expr.JoinInner, On: []string{"id"}}
	}
	for _, c := range []struct {
		name   string
		e      *Engine
		plan   algebra.Node
		inline bool
	}{
		{"R rows", New(), pick(at), true},
		{"R+1 rows", New(), pick(over), false},
		{"two sources totalling R", New(), join(half, otherHalf), true},
		{"two sources totalling R+1", New(), join(half, halfAndOne), false},
		{"union totalling R+1", New(), &algebra.Union{Left: half, Right: halfAndOne}, false},
		{"shared source of R rows", New(), join(at, pick(at)), true},
		{"R rows and a small source", New(), join(at, small), false},
		{"build side over R", New(), join(small, over), false},
		{"probe side over R", New(), join(over, small), false},
		{"scan", New(), pick(scanOver(t, testFrame(10), 4)), false},
		{"explicit bands", New(WithBands(2)), pick(small), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, sched, err := c.e.Schedule(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if ran := scheduledTasks(sched) == 0; ran != c.inline {
				t.Errorf("ran inline = %v, want %v", ran, c.inline)
			}
			pf, err := res.Frame()
			if err != nil {
				t.Fatal(err)
			}
			got, err := pf.ToFrame()
			if err != nil {
				t.Fatal(err)
			}
			want, err := eager.New().Execute(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFrame(want, got) {
				t.Errorf("result disagrees with eager:\n%s\n%s", want, got)
			}
			explained := strings.Contains(c.e.DescribePhysical(c.plan), "inline: sources total ≤ 4096 rows")
			if explained != c.inline {
				t.Errorf("DescribePhysical names the inline walk = %v, want %v", explained, c.inline)
			}
		})
	}
}

// TestSharedSubPlanRunsOnce reuses one MAP twice in a plan: the walk, on
// inline MODIN and on the eager engine alike, runs its UDF once per row.
func TestSharedSubPlanRunsOnce(t *testing.T) {
	df := testFrame(25)
	for _, c := range []struct {
		name string
		run  func(algebra.Node) (*core.DataFrame, error)
	}{
		{"modin inline", New().Execute},
		{"eager", eager.New().Execute},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			m := &algebra.Map{Input: &algebra.Source{DF: df}, Fn: expr.MapFn{
				Name:    "counted",
				OutCols: []types.Value{types.String("id2")},
				Fn: func(r expr.Row) []types.Value {
					calls.Add(1)
					return []types.Value{types.IntValue(r.Value(0).Int() * 2)}
				},
			}}
			out, err := c.run(&algebra.Union{Left: m, Right: &algebra.Selection{Input: m, Where: expr.WhereCompare("id2", vector.CmpGt, types.IntValue(20))}})
			if err != nil {
				t.Fatal(err)
			}
			if out.NRows() != 25+14 {
				t.Errorf("rows = %d, want 39", out.NRows())
			}
			if got := calls.Load(); got != 25 {
				t.Errorf("UDF ran %d times, want once per row (25)", got)
			}
		})
	}
}

// TestInlinePanicFailsThePlan: a panicking UDF fails an inline plan with
// the text a panicking pool task gives on the DAG, instead of crashing the
// caller.
func TestInlinePanicFailsThePlan(t *testing.T) {
	plan := &algebra.Map{Input: &algebra.Source{DF: testFrame(5)}, Fn: expr.MapFn{
		Name:    "boom",
		OutCols: []types.Value{types.String("x")},
		Fn:      func(expr.Row) []types.Value { panic("udf kaboom") },
	}}
	for name, e := range map[string]*Engine{"inline": New(), "dag": New(WithBands(1))} {
		if _, err := e.Execute(plan); err == nil || !strings.Contains(err.Error(), "exec: task panic: udf kaboom") {
			t.Errorf("%s: err = %v, want the task panic", name, err)
		}
		if _, err := e.ExecuteAsync(plan).Wait(); err == nil || !strings.Contains(err.Error(), "exec: task panic: udf kaboom") {
			t.Errorf("%s async: err = %v, want the task panic", name, err)
		}
	}
}

// TestInlineExecuteAsyncReturnsUnresolvedFuture is
// TestExecuteAsyncReturnsUnresolvedFuture on the default bands, where the
// 30-row plan runs as one inline walk: the walk is a pool task, so the
// future still comes back unresolved while the map is gated.
func TestInlineExecuteAsyncReturnsUnresolvedFuture(t *testing.T) {
	pool := exec.NewPool(2)
	defer pool.Close()
	e := New(WithPool(pool))
	gate := make(chan struct{})
	slow := expr.MapFn{
		Name:    "gated",
		OutCols: []types.Value{types.String("x")},
		Fn: func(r expr.Row) []types.Value {
			<-gate
			return []types.Value{types.IntValue(int64(r.Position()))}
		},
	}
	plan := &algebra.Map{Input: &algebra.Source{DF: testFrame(30)}, Fn: slow}
	if !e.inline(plan) {
		t.Fatal("a 30-row plan on default bands should run inline")
	}
	fut := e.ExecuteAsync(plan)
	if fut.Ready() {
		t.Fatal("future should be unresolved while the map is gated")
	}
	close(gate)
	v, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v.(*core.DataFrame).NRows() != 30 {
		t.Error("async result wrong")
	}
}

// TestUntypedStringDomainsDependOnBands pins a known divergence the inline
// rule makes visible by input size. A string column left untyped is induced
// over whatever rows reach an operator: the whole column on the inline walk
// and at one band, each band's rows at 2 and 7 bands. A band holding fewer
// than 16 rows never induces Category, so the DAG can declare Object where
// the walk declares Category. Values agree everywhere; the DAG never
// declares any other difference.
func TestUntypedStringDomainsDependOnBands(t *testing.T) {
	_, dim, raw := inlineFrames(60)
	object := 0
	for name, plan := range inlinePlans(raw, dim, raw) {
		t.Run(name, func(t *testing.T) {
			want, err := New().Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, bands := range []int{1, 2, 7} {
				got, err := New(WithBands(bands)).Execute(plan)
				if err != nil {
					t.Fatalf("bands=%d: %v", bands, err)
				}
				if !want.Equal(got) {
					t.Fatalf("bands=%d: values disagree with inline:\n%s\n%s", bands, want, got)
				}
				for j, d := range got.Domains() {
					w := want.Domains()[j]
					switch {
					case d == w:
					case bands > 1 && w == types.Category && d == types.Object:
						object++
					default:
						t.Errorf("bands=%d: %s declared %v, inline %v", bands, got.ColNames()[j], d, w)
					}
				}
			}
		})
	}
	// The divergence is real today: when per-band induction is fixed, this
	// count drops to zero and the test and its ROADMAP note go.
	if object == 0 {
		t.Error("no Category→Object divergence: per-band induction now agrees; drop this test's allowance")
	}
}
