package optimizer_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/modin"
	"repro/internal/optimizer"
	"repro/internal/types"
	"repro/internal/vector"
)

const pruneRule = "prune-groupby-input"

// withoutPrune is Default() minus the pruning rule: the reference every
// pruned plan must agree with.
func withoutPrune() []optimizer.Rule {
	var rules []optimizer.Rule
	for _, r := range optimizer.Default() {
		if r.Name() != pruneRule {
			rules = append(rules, r)
		}
	}
	return rules
}

// randPruneColumn draws n rows of one of the four storage kinds a groupby
// input column comes in: Int, Float, dictionary-coded strings, or raw Σ*
// (what a CSV scan yields, induced lazily — numeric-looking or not).
func randPruneColumn(r *rand.Rand, n int) vector.Vector {
	var nulls []bool
	if r.Intn(2) == 0 {
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = r.Intn(4) == 0
		}
	}
	switch r.Intn(4) {
	case 0:
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(r.Intn(7)) - 2
		}
		return vector.NewInt(data, nulls)
	case 1:
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(r.Intn(40))/4 - 3
		}
		return vector.NewFloat(data, nulls)
	case 2:
		dict := []string{"red", "green", "blue"}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(r.Intn(len(dict)))
		}
		return vector.NewDict(codes, dict, nulls)
	default:
		numeric := r.Intn(2) == 0
		data := make([]string, n)
		for i := range data {
			switch {
			case nulls != nil && nulls[i]:
				data[i] = "NA"
			case numeric:
				data[i] = fmt.Sprint(r.Intn(5))
			default:
				data[i] = fmt.Sprintf("s%d", r.Intn(4))
			}
		}
		return vector.NewObjectFromStrings(data)
	}
}

func randPruneFrame(r *rand.Rand) *core.DataFrame {
	nrows := []int{0, 1, 2 + r.Intn(40), 2 + r.Intn(40)}[r.Intn(4)]
	ncols := 1 + r.Intn(6)
	names := make([]string, ncols)
	cols := make([]vector.Vector, ncols)
	for j := range cols {
		names[j] = fmt.Sprintf("c%d", j)
		cols[j] = randPruneColumn(r, nrows)
	}
	return core.MustNew(names, cols)
}

// randPrunePlan draws [SELECTION(Where)]* → [SORT] → GROUPBY over the named
// columns and returns it as a function of its leaf, so the same plan runs
// over an in-memory source and a streamed scan.
func randPrunePlan(r *rand.Rand, names []string) func(algebra.Node) algebra.Node {
	col := func() string { return names[r.Intn(len(names))] }
	var wheres []*expr.Where
	for i := r.Intn(3); i > 0; i-- {
		switch r.Intn(3) {
		case 0:
			wheres = append(wheres, expr.WhereNotNull(col()))
		case 1:
			wheres = append(wheres, expr.WhereCompare(col(), vector.CmpGe, types.IntValue(int64(r.Intn(3)))))
		default:
			wheres = append(wheres, expr.WhereCompare(col(), vector.CmpNe, types.String("green")))
		}
	}
	var spec expr.GroupBySpec
	for i := r.Intn(3); i > 0; i-- {
		if key := col(); !slices.Contains(spec.Keys, key) {
			spec.Keys = append(spec.Keys, key)
		}
	}
	kinds := []expr.AggKind{expr.AggSum, expr.AggMean, expr.AggMin, expr.AggMax, expr.AggCount, expr.AggSize, expr.AggCollect}
	for i := 1 + r.Intn(3); i > 0; i-- {
		a := expr.AggSpec{Agg: kinds[r.Intn(len(kinds))], As: fmt.Sprintf("out%d", i)}
		if wholeRow := a.Agg == expr.AggSize || a.Agg == expr.AggCollect && r.Intn(2) == 0; !wholeRow {
			a.Col = col()
		}
		spec.Aggs = append(spec.Aggs, a)
	}
	spec.AsLabels = len(spec.Keys) > 0 && r.Intn(3) == 0
	var order expr.SortOrder
	if len(spec.Keys) > 0 && r.Intn(3) == 0 {
		// A sort the groupby can run off (sorted-groupby), sometimes with a
		// trailing key the groupby does not read, which pins the pruning
		// projection above the SORT.
		for _, key := range spec.Keys {
			order = append(order, expr.SortKey{Col: key})
		}
		if r.Intn(2) == 0 {
			order = append(order, expr.SortKey{Col: col(), Desc: true})
		}
	}
	return func(leaf algebra.Node) algebra.Node {
		for _, w := range wheres {
			leaf = &algebra.Selection{Input: leaf, Where: w, Pred: w.Predicate(), Desc: w.Describe()}
		}
		if order != nil {
			leaf = &algebra.Sort{Input: leaf, Order: order}
		}
		return &algebra.GroupBy{Input: leaf, Spec: spec}
	}
}

// sameFrame is DataFrame.Equal that looks inside COLLECT's composite cells
// (which Equal compares by identity): two collected sub-frames are the same
// when they are recursively.
func sameFrame(a, b *core.DataFrame) bool {
	if a.NRows() != b.NRows() || a.NCols() != b.NCols() || !vector.Equal(a.RowLabels(), b.RowLabels()) {
		return false
	}
	for j := 0; j < a.NCols(); j++ {
		if a.ColName(j) != b.ColName(j) {
			return false
		}
		if a.Domain(j) != types.Composite {
			if !vector.Equal(a.TypedCol(j), b.TypedCol(j)) {
				return false
			}
			continue
		}
		for i := 0; i < a.NRows(); i++ {
			sa, _ := a.Value(i, j).CompositePayload().(*core.DataFrame)
			sb, _ := b.Value(i, j).CompositePayload().(*core.DataFrame)
			if sa == nil || sb == nil || !sameFrame(sa, sb) {
				return false
			}
		}
	}
	return true
}

// scanOf renders the frame as CSV and returns a streamed scan over the text
// in bandRows-row morsels — what df.ScanCSVString builds.
func scanOf(t *testing.T, df *core.DataFrame, bandRows int) *algebra.Scan {
	t.Helper()
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return &algebra.Scan{
		Name:     "csv",
		Data:     data,
		Columns:  df.ColNames(),
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
}

// TestPruneGroupByInputIsAnIdentity is the rule's soundness property: over
// random frames, groupby specs and filter chains, the plan optimized with
// the rule and the plan optimized without it produce Equal frames (or the
// same error) on the eager engine, on MODIN, and on MODIN streaming the
// same rows from CSV under a spill budget that sends every routed piece to
// disk. One seed is fixed; one is fresh per run and logged on failure.
func TestPruneGroupByInputIsAnIdentity(t *testing.T) {
	for _, seed := range []int64{15, time.Now().UnixNano()} {
		r := rand.New(rand.NewSource(seed))
		pruned := 0
		for iter := 0; iter < 120; iter++ {
			frame := randPruneFrame(r)
			build := randPrunePlan(r, frame.ColNames())
			spilling := modin.New(modin.WithBands(2), modin.WithShuffleSpillBudget(1))
			runs := []struct {
				name   string
				engine algebra.Engine
				leaf   algebra.Node
			}{
				{"eager", eager.New(), &algebra.Source{DF: frame}},
				{"modin", modin.New(modin.WithBands(3)), &algebra.Source{DF: frame}},
				{"stream/1", spilling, scanOf(t, frame, 1)},
				{"stream/7", spilling, scanOf(t, frame, 7)},
				{"stream/64", spilling, scanOf(t, frame, 64)},
			}
			for _, run := range runs {
				plan := build(run.leaf)
				with, fired := optimizer.Optimize(plan, optimizer.Default())
				without, _ := optimizer.Optimize(plan, withoutPrune())
				if slices.Contains(fired, pruneRule) {
					pruned++
				}
				got, gotErr := run.engine.Execute(with)
				want, wantErr := run.engine.Execute(without)
				where := fmt.Sprintf("seed %d iter %d on %s\nplan:\n%swith the rule:\n%s", seed, iter, run.name, algebra.Render(plan), algebra.Render(with))
				switch {
				case gotErr != nil || wantErr != nil:
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
						t.Fatalf("%s\nerror with the rule: %v\nwithout: %v", where, gotErr, wantErr)
					}
				case !sameFrame(want, got):
					t.Fatalf("%s\nresult with the rule:\n%s\nwithout:\n%s", where, got, want)
				}
			}
			if err := spilling.ReleaseSpill(); err != nil {
				t.Fatalf("seed %d iter %d: release spill: %v", seed, iter, err)
			}
		}
		if pruned == 0 {
			t.Errorf("seed %d: the rule never fired; the property is vacuous", seed)
		}
	}
}

func groupBy(in algebra.Node, keys []string, aggs ...expr.AggSpec) *algebra.GroupBy {
	return &algebra.GroupBy{Input: in, Spec: expr.GroupBySpec{Keys: keys, Aggs: aggs}}
}

// TestPruneGroupByInput checks the rewrite's shape: need in the input's
// column order, carried to the leaf through a filter that reads a dropped
// column, and a sorted groupby still recognized when the projection cannot
// sink below the SORT.
func TestPruneGroupByInput(t *testing.T) {
	wide := &algebra.Source{DF: core.MustFromRecords(
		[]string{"a", "v", "x", "k", "y"},
		[][]any{{1, 1.5, "p", "u", 0}, {nil, 2.5, "q", "w", 0}, {3, 3.5, "p", "u", 0}},
	), Name: "wide"}
	sum := expr.AggSpec{Col: "v", Agg: expr.AggSum}

	got, fired := optimizer.Optimize(groupBy(wide, []string{"k"}, sum), optimizer.Default())
	want := "GROUPBY(keys=[k], aggs=[sum(v)])\n  PROJECTION(v, k)\n    SOURCE(wide, 3x5)\n"
	if algebra.Render(got) != want || strings.Join(fired, ",") != pruneRule {
		t.Errorf("pruned plan:\n%sfired %v, want:\n%s", algebra.Render(got), fired, want)
	}

	w := expr.WhereNotNull("a")
	filtered := groupBy(&algebra.Selection{Input: wide, Where: w, Pred: w.Predicate()}, []string{"k"}, sum)
	got, fired = optimizer.Optimize(filtered, optimizer.Default())
	want = "GROUPBY(keys=[k], aggs=[sum(v)])\n  PROJECTION(v, k)\n    SELECTION(a not null)\n      PROJECTION(a, v, k)\n        SOURCE(wide, 3x5)\n"
	if algebra.Render(got) != want || strings.Join(fired, ",") != pruneRule+",push-projection-through-selection" {
		t.Errorf("pruned filtered plan:\n%sfired %v, want:\n%s", algebra.Render(got), fired, want)
	}

	for _, order := range []expr.SortOrder{{{Col: "k"}}, {{Col: "k"}, {Col: "x"}}} {
		sorted := groupBy(&algebra.Sort{Input: wide, Order: order}, []string{"k"}, sum)
		got, fired = optimizer.Optimize(sorted, optimizer.Default())
		if !got.(*algebra.GroupBy).Spec.Sorted || !slices.Contains(fired, pruneRule) {
			t.Errorf("sort by %v: want a pruned AND sorted groupby, fired %v:\n%s", order, fired, algebra.Render(got))
		}
	}
}

// TestPruneGroupByInputDeclines lists the plans the rule must leave alone:
// no rule fires at all, and a plan that fails keeps failing in the GROUPBY,
// with the text it has without the optimizer.
func TestPruneGroupByInputDeclines(t *testing.T) {
	src := &algebra.Source{DF: core.MustFromRecords(
		[]string{"k", "v", "x"},
		[][]any{{"b", 1, 1.5}, {"a", 2, 2.5}, {"b", 3, 3.5}},
	), Name: "t"}
	dup, err := core.New([]string{"k", "v", "k", "x"}, append(src.DF.Columns(), src.DF.Columns()[0]))
	if err != nil {
		t.Fatal(err)
	}
	sum := expr.AggSpec{Col: "v", Agg: expr.AggSum}
	cases := []struct {
		name string
		plan algebra.Node
		err  string
	}{
		{name: "duplicate labels", plan: groupBy(&algebra.Source{DF: dup}, []string{"k"}, sum)},
		{name: "unknown schema over transpose", plan: groupBy(&algebra.Transpose{Input: src}, []string{"k"}, sum),
			err: `groupby key "k" not found`},
		{name: "unknown schema over join", plan: groupBy(&algebra.Join{Left: src, Right: src, Kind: expr.JoinInner, On: []string{"k"}}, []string{"k"}, expr.AggSpec{Agg: expr.AggSize})},
		{name: "missing key", plan: groupBy(src, []string{"ghost"}, sum),
			err: `GROUPBY(keys=[ghost], aggs=[sum(v)]): algebra: groupby key "ghost" not found`},
		{name: "missing aggregate column", plan: groupBy(src, []string{"k"}, expr.AggSpec{Col: "ghost", Agg: expr.AggSum}),
			err: `GROUPBY(keys=[k], aggs=[sum(ghost)]): algebra: groupby aggregate column "ghost" not found`},
		{name: "keyless size", plan: groupBy(src, nil, expr.AggSpec{Agg: expr.AggSize})},
		{name: "whole-row collect", plan: groupBy(src, []string{"k"}, expr.AggSpec{Agg: expr.AggCollect})},
		{name: "collect of one column", plan: groupBy(src, []string{"k"}, expr.AggSpec{Col: "v", Agg: expr.AggCollect})},
		{name: "whole-row count", plan: groupBy(src, []string{"k"}, expr.AggSpec{Agg: expr.AggCount})},
		{name: "input already exactly need", plan: groupBy(&algebra.Projection{Input: src, Cols: []string{"k", "v"}}, []string{"k"}, sum)},
	}
	// Which band's task reports a failure first is a race; the failure is not.
	bandNo := regexp.MustCompile(`band \d+`)
	for _, tc := range cases {
		opt, fired := optimizer.Optimize(tc.plan, optimizer.Default())
		if len(fired) != 0 {
			t.Errorf("%s: fired %v, want no rule:\n%s", tc.name, fired, algebra.Render(opt))
		}
		for _, engine := range []algebra.Engine{eager.New(), modin.New(modin.WithBands(2))} {
			_, before := engine.Execute(tc.plan)
			_, after := engine.Execute(opt)
			if bandNo.ReplaceAllString(fmt.Sprint(before), "band N") != bandNo.ReplaceAllString(fmt.Sprint(after), "band N") {
				t.Errorf("%s on %s: error changed: %v → %v", tc.name, engine.Name(), before, after)
			}
			if tc.err != "" && (after == nil || !strings.Contains(after.Error(), tc.err)) {
				t.Errorf("%s on %s: error = %v, want it to contain %q", tc.name, engine.Name(), after, tc.err)
			}
		}
	}
}
