package modin

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
)

// zipfKeys draws n keys from a Zipf distribution over [0, keys): heavy head
// keys plus a long tail, the shape that breaks even-cut shuffle planning.
func zipfKeys(n, keys int, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.3, 1, uint64(keys-1))
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(z.Uint64())
	}
	return out
}

// skewJoinFrames builds a probe side with Zipf-skewed keys (some null) and
// a build side with duplicate keys.
func skewJoinFrames(t *testing.T, probeRows, buildRows, keys int) (left, right *core.DataFrame) {
	t.Helper()
	lk := zipfKeys(probeRows, keys, 1)
	lrec := make([][]any, probeRows)
	for i := range lrec {
		var k any = int(lk[i])
		if i%37 == 0 {
			k = nil
		}
		lrec[i] = []any{i, k, float64(i%19) + 0.25}
	}
	rk := zipfKeys(buildRows, keys, 2)
	rrec := make([][]any, buildRows)
	for i := range rrec {
		var k any = int(rk[i])
		if i%41 == 0 {
			k = nil
		}
		rrec[i] = []any{k, i * 3}
	}
	return core.MustFromRecords([]string{"id", "k", "lv"}, lrec),
		core.MustFromRecords([]string{"k", "rv"}, rrec)
}

// TestShuffledJoinMatchesEager drives Zipf-skewed inner and left joins
// through the anchored probe at four bands and requires its output to equal
// the eager engine's, row-for-row and label-for-label.
func TestShuffledJoinMatchesEager(t *testing.T) {
	left, right := skewJoinFrames(t, 700, 600, 40)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{
			Left:  &algebra.Source{DF: left},
			Right: &algebra.Source{DF: right},
			Kind:  kind,
			On:    []string{"k"},
		}
		got, err := New(WithBands(4)).Execute(plan)
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
		base, err := eager.New().Execute(plan)
		if err != nil {
			t.Fatalf("kind %v eager: %v", kind, err)
		}
		if !sameFrame(base, got) {
			t.Fatalf("kind %v: shuffled join disagrees with eager:\neager:\n%s\nshuffled:\n%s", kind, base, got)
		}
	}
}

// TestShuffledJoinCompositeKey covers multi-column join keys through the
// anchored probe.
func TestShuffledJoinCompositeKey(t *testing.T) {
	rows := 500
	lrec := make([][]any, rows)
	for i := range lrec {
		lrec[i] = []any{i % 7, []string{"a", "b", "c"}[i%3], i}
	}
	rrec := make([][]any, rows)
	for i := range rrec {
		rrec[i] = []any{i % 5, []string{"a", "b", "c", "d"}[i%4], i * 2}
	}
	plan := &algebra.Join{
		Left:  &algebra.Source{DF: core.MustFromRecords([]string{"a", "b", "x"}, lrec)},
		Right: &algebra.Source{DF: core.MustFromRecords([]string{"a", "b", "y"}, rrec)},
		Kind:  expr.JoinInner,
		On:    []string{"a", "b"},
	}
	got, err := New(WithBands(3)).Execute(plan)
	if err != nil {
		t.Fatalf("shuffled: %v", err)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	if !sameFrame(want, got) {
		t.Fatalf("composite-key shuffled join disagrees with eager:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestGroupBySkewZipf runs a Zipf-skewed groupby through the skew-aware
// shuffle planning (heavy-bucket parallel merges) and requires exact
// agreement with the eager engine.
func TestGroupBySkewZipf(t *testing.T) {
	rows := 4000
	ks := zipfKeys(rows, 500, 3)
	rec := make([][]any, rows)
	for i := range rec {
		var v any = i % 23
		if i%13 == 0 {
			v = nil
		}
		rec[i] = []any{int(ks[i]), v, float64(i%9) + 0.5}
	}
	df := core.MustFromRecords([]string{"k", "v", "s"}, rec)
	plan := &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{
				{Col: "v", Agg: expr.AggCount, As: "n"},
				{Col: "v", Agg: expr.AggSum, As: "total"},
				{Col: "s", Agg: expr.AggMean, As: "avg"},
				{Col: "v", Agg: expr.AggMin, As: "lo"},
				{Col: "v", Agg: expr.AggMax, As: "hi"},
			},
		},
	}
	assertEngineAgreesWithEager(t, New(WithBands(4)), plan)
}

// TestExplainPhysicalStrategy checks the strategy rendering: an inner or
// left join, on columns or labels, reports the build size of its one table;
// other joins gather; groupbys report their strategy.
func TestExplainPhysicalStrategy(t *testing.T) {
	rows := 2000
	rec := make([][]any, rows)
	for i := range rec {
		rec[i] = []any{int(int64(i % 700)), i}
	}
	df := core.MustFromRecords([]string{"k", "v"}, rec)
	e := New(WithBands(4))
	for _, c := range []struct {
		join *algebra.Join
		want string
	}{
		{&algebra.Join{Kind: expr.JoinInner, On: []string{"k"}}, "JOIN strategy=broadcast (build≈2k rows)\n"},
		{&algebra.Join{Kind: expr.JoinLeft, OnLabels: true}, "JOIN strategy=broadcast (build≈2k rows)\n"},
		{&algebra.Join{Kind: expr.JoinOuter, On: []string{"k"}}, "JOIN strategy=gather-exchange\n"},
	} {
		c.join.Left, c.join.Right = &algebra.Source{DF: df}, &algebra.Source{DF: df}
		if out := e.DescribePhysical(c.join); out != c.want {
			t.Errorf("%v join strategy line:\n%s", c.join.Kind, out)
		}
	}
	gb := &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "total"}},
		},
	}
	if out := e.DescribePhysical(gb); out != "GROUPBY strategy=hash-shuffle (groups≈200)\n" {
		t.Errorf("groupby strategy line:\n%s", out)
	}
}

// TestJoinOverGroupedBuildSide covers a build side sized by the zero-stats
// model rather than a base frame: a GROUPBY over a source, estimated at a
// tenth of the source's rows. Inner and left joins whose keys repeat on
// both sides and are null on both sides must equal the eager engine.
func TestJoinOverGroupedBuildSide(t *testing.T) {
	grouped := groupedBuildSide()
	left, _ := skewJoinFrames(t, 500, 1, 120)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{Left: &algebra.Source{DF: left}, Right: grouped, Kind: kind, On: []string{"k"}}
		e := New(WithBands(4))
		if out := e.DescribePhysical(plan); !strings.HasSuffix(out, "JOIN strategy=broadcast (build≈200 rows)\n") {
			t.Errorf("kind %v: explain does not size the build at 200 rows:\n%s", kind, out)
		}
		assertEngineAgreesWithEager(t, e, plan)
	}
}

// groupedBuildSide is a GROUPBY over a 2,000-row source whose key k repeats
// and is sometimes null: the zero-stats model sizes it at 200 rows.
func groupedBuildSide() *algebra.GroupBy {
	rows := 2000
	rec := make([][]any, rows)
	for i := range rec {
		var k any = i % 90
		if i%13 == 0 {
			k = nil
		}
		rec[i] = []any{k, i % 3, i}
	}
	return &algebra.GroupBy{
		Input: &algebra.Source{DF: core.MustFromRecords([]string{"k", "g", "v"}, rec)},
		Spec: expr.GroupBySpec{
			Keys: []string{"k", "g"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "total"}},
		},
	}
}

// TestJoinBuildRowsThroughUnaryOperators pins the build size a join's
// explain line reports when its build side reaches a GROUPBY through the
// operators that keep or shrink its rows: the base frame is exact, the
// GROUPBY a tenth of it, a filter halves it, a sort, projection or schema
// induction passes it through, and a limit or top-k caps it. The join equals
// the eager one at every shape.
func TestJoinBuildRowsThroughUnaryOperators(t *testing.T) {
	grouped := groupedBuildSide()
	order := expr.SortOrder{{Col: "total", Desc: true}}
	left, _ := skewJoinFrames(t, 400, 1, 120)
	for _, c := range []struct {
		name  string
		right algebra.Node
		rows  float64
	}{
		{"source", grouped.Input, 2000},
		{"groupby", grouped, 200},
		{"selection", &algebra.Selection{Input: grouped, Pred: expr.ColNotNull("k"), Desc: "k not null"}, 100},
		{"sort", &algebra.Sort{Input: grouped, Order: order}, 200},
		{"induce", &algebra.Induce{Input: grouped}, 200},
		{"projection", &algebra.Projection{Input: grouped, Cols: []string{"k", "total"}}, 200},
		{"limit", &algebra.Limit{Input: grouped, N: 50}, 50},
		{"topk", &algebra.TopK{Input: grouped, Order: order, N: 50}, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan := &algebra.Join{Left: &algebra.Source{DF: left}, Right: c.right, Kind: expr.JoinLeft, On: []string{"k"}}
			e := New(WithBands(4))
			want := "JOIN strategy=broadcast (build≈" + approx(c.rows) + " rows)\n"
			if out := e.DescribePhysical(plan); !strings.HasSuffix(out, want) {
				t.Errorf("explain does not end in %q:\n%s", want, out)
			}
			assertEngineAgreesWithEager(t, e, plan)
		})
	}
}

// TestLargeRightSideBuildsOneTable joins shuffle_wide's 75,000-row fact
// frame to its 70,000-row dimension on two bands: whatever the right side's
// size, the join builds its one table in one plan task, routes no rows (no
// partition task), renumbers from the bands' own row counts (no summary
// task), and equals the eager join cell for cell.
func TestLargeRightSideBuildsOneTable(t *testing.T) {
	plan := shuffledJoinPlan()
	res, sched, err := New(WithBands(2)).Schedule(plan)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := res.Frame()
	if err != nil {
		t.Fatal(err)
	}
	got, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "2-band join", want, got)
	if n := sched.Stats.ShufflePlanTasks.Load(); n != 1 {
		t.Errorf("%d plan tasks, want 1", n)
	}
	if n := sched.Stats.ShufflePartitionTasks.Load(); n != 0 {
		t.Errorf("%d partition tasks, want 0", n)
	}
	if n := sched.Stats.ShuffleSummaryTasks.Load(); n != 0 {
		t.Errorf("%d summary tasks, want 0 (the renumber pass reads its earlier bands)", n)
	}
}
