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
// a build side with duplicate keys, both large enough to cross the test
// broadcast limit.
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

// withBuildLimit sets the engine's broadcast limit, so a test reaches the
// key-shuffled join on small inputs (or forces the broadcast on large ones).
func withBuildLimit(rows int) Option { return func(e *Engine) { e.broadcastLimit = rows } }

// TestShuffledJoinMatchesBroadcastAndEager drives Zipf-skewed inner and
// left joins through the key-shuffled strategy and requires its output to
// equal both the eager engine and the default broadcast plan, row-for-row
// and label-for-label.
func TestShuffledJoinMatchesBroadcastAndEager(t *testing.T) {
	left, right := skewJoinFrames(t, 700, 600, 40)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{
			Left:  &algebra.Source{DF: left},
			Right: &algebra.Source{DF: right},
			Kind:  kind,
			On:    []string{"k"},
		}
		e := New(WithBands(4), withBuildLimit(100))
		if !e.chooseJoinStrategy(plan).shuffled {
			t.Fatalf("kind %v: expected the shuffled strategy to fire", kind)
		}
		shuffled, err := e.Execute(plan)
		if err != nil {
			t.Fatalf("kind %v shuffled: %v", kind, err)
		}
		broadcast, err := New(WithBands(4)).Execute(plan)
		if err != nil {
			t.Fatalf("kind %v broadcast: %v", kind, err)
		}
		base, err := eager.New().Execute(plan)
		if err != nil {
			t.Fatalf("kind %v eager: %v", kind, err)
		}
		if !base.Equal(shuffled) {
			t.Fatalf("kind %v: shuffled join disagrees with eager:\neager:\n%s\nshuffled:\n%s", kind, base, shuffled)
		}
		if !base.Equal(broadcast) {
			t.Fatalf("kind %v: broadcast join disagrees with eager", kind)
		}
	}
}

// TestShuffledJoinCompositeKey covers multi-column join keys through the
// shuffled path.
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
	e := New(WithBands(3), withBuildLimit(50))
	if !e.chooseJoinStrategy(plan).shuffled {
		t.Fatal("expected the shuffled strategy to fire")
	}
	got, err := e.Execute(plan)
	if err != nil {
		t.Fatalf("shuffled: %v", err)
	}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	if !want.Equal(got) {
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

// TestChooseJoinStrategyFallbacks pins the broadcast fallbacks: every gate
// failure degrades to broadcast.
func TestChooseJoinStrategyFallbacks(t *testing.T) {
	left, right := skewJoinFrames(t, 300, 300, 20)
	plan := &algebra.Join{
		Left:  &algebra.Source{DF: left},
		Right: &algebra.Source{DF: right},
		Kind:  expr.JoinInner,
		On:    []string{"k"},
	}
	if New(WithBands(1), withBuildLimit(10)).chooseJoinStrategy(plan).shuffled {
		t.Error("single band must broadcast")
	}
	if New(WithBands(4)).chooseJoinStrategy(plan).shuffled {
		t.Error("build under the default limit must broadcast")
	}
	lab := &algebra.Join{Left: plan.Left, Right: plan.Right, Kind: expr.JoinInner, OnLabels: true}
	if New(WithBands(4), withBuildLimit(10)).chooseJoinStrategy(lab).shuffled {
		t.Error("label join must broadcast")
	}
	if c := New(WithBands(4), withBuildLimit(10)).chooseJoinStrategy(plan); !c.shuffled || c.buildRows != 300 {
		t.Errorf("expected shuffled with buildRows=300, got %+v", c)
	}
}

// TestExplainPhysicalStrategy checks the strategy rendering: joins report
// the build size that decided them, groupbys their strategy.
func TestExplainPhysicalStrategy(t *testing.T) {
	rows := 2000
	rec := make([][]any, rows)
	for i := range rec {
		rec[i] = []any{int(int64(i % 700)), i}
	}
	df := core.MustFromRecords([]string{"k", "v"}, rec)
	join := &algebra.Join{
		Left:  &algebra.Source{DF: df},
		Right: &algebra.Source{DF: df},
		Kind:  expr.JoinInner,
		On:    []string{"k"},
	}
	e := New(WithBands(4), withBuildLimit(1000))
	if out := e.DescribePhysical(join); out != "JOIN strategy=shuffle (build≈2k rows)\n" {
		t.Errorf("shuffle strategy line:\n%s", out)
	}
	if out := New(WithBands(4)).DescribePhysical(join); out != "JOIN strategy=broadcast (build≈2k rows)\n" {
		t.Errorf("broadcast strategy line:\n%s", out)
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

// TestJoinOverGroupedBuildSide covers the one plan shape whose strategy is
// sized by the zero-stats model rather than a base frame: a build side that
// is a GROUPBY over a source. Its rows are estimated as a tenth of the
// source's, so a low limit shuffles by key and a high one broadcasts; both
// must equal the eager engine, for inner and left joins whose keys repeat
// on both sides and are null on both sides.
func TestJoinOverGroupedBuildSide(t *testing.T) {
	grouped := groupedBuildSide()
	left, _ := skewJoinFrames(t, 500, 1, 120)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{Left: &algebra.Source{DF: left}, Right: grouped, Kind: kind, On: []string{"k"}}
		for _, c := range []struct {
			limit    int
			shuffled bool
		}{{100, true}, {1 << 30, false}} {
			e := New(WithBands(4), withBuildLimit(c.limit))
			if got := e.chooseJoinStrategy(plan); got.shuffled != c.shuffled || got.buildRows != 200 {
				t.Fatalf("kind %v limit %d: strategy %+v, want shuffled=%v over 200 build rows", kind, c.limit, got, c.shuffled)
			}
			assertEngineAgreesWithEager(t, e, plan)
		}
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

// TestJoinBuildRowsThroughUnaryOperators pins the build size a join is
// decided on when its build side reaches a GROUPBY through the operators
// that keep or shrink its rows: the base frame is exact, the GROUPBY a tenth
// of it, a filter halves it, a sort, projection or schema induction passes
// it through, and a limit or top-k caps it. Against a limit of 150 each shape lands on its own
// side, the rendered strategy names that size, and the join equals the
// eager one either way.
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
			e := New(WithBands(4), withBuildLimit(150))
			got := e.chooseJoinStrategy(plan)
			if got.buildRows != c.rows || got.shuffled != (c.rows > 150) {
				t.Fatalf("strategy %+v, want %v build rows", got, c.rows)
			}
			strategy := "broadcast"
			if got.shuffled {
				strategy = "shuffle"
			}
			want := "JOIN strategy=" + strategy + " (build≈" + approx(c.rows) + " rows)\n"
			if out := e.DescribePhysical(plan); !strings.HasSuffix(out, want) {
				t.Errorf("explain does not end in %q:\n%s", want, out)
			}
			assertEngineAgreesWithEager(t, e, plan)
		})
	}
}

// TestKeyShuffledJoinCountsNoRows pins the key-shuffled join's schedule:
// both sides route by band position, so at two bands the join runs no
// row-count summary task and two plan tasks, the probe's and the
// assembly's, whose side inputs they gather.
func TestKeyShuffledJoinCountsNoRows(t *testing.T) {
	left, right := skewJoinFrames(t, 300, 200, 20)
	plan := &algebra.Join{Left: &algebra.Source{DF: left}, Right: &algebra.Source{DF: right}, Kind: expr.JoinInner, On: []string{"k"}}
	e := New(WithBands(2), withBuildLimit(10))
	if !e.chooseJoinStrategy(plan).shuffled {
		t.Fatal("expected the key-shuffled join")
	}
	res, sched, err := e.Schedule(plan)
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
	if !sameFrame(want, got) {
		t.Fatalf("key-shuffled join differs from eager:\neager:\n%s\nmodin:\n%s", want, got)
	}
	if n := sched.Stats.ShuffleSummaryTasks.Load(); n != 0 {
		t.Errorf("%d summary tasks, want 0", n)
	}
	if n := sched.Stats.ShufflePlanTasks.Load(); n != 2 {
		t.Errorf("%d plan tasks, want 2", n)
	}
}
