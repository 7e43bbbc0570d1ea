package algebra_test

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// codecFrame is the frame every round-trip case reads: an Int key with
// repeats, a Float value with a null, a string column and a Datetime column
// whose cells differ below the second.
func codecFrame() *core.DataFrame {
	const base = 1_600_000_000_100_000_000
	return core.MustNew([]string{"k", "v", "s", "t"}, []vector.Vector{
		vector.NewInt([]int64{3, 1, 3, 2, 1, 3}, nil),
		vector.NewFloat([]float64{1.5, 2, 0, 4.25, 8, 16}, []bool{false, false, true, false, false, false}),
		vector.NewObjectFromStrings([]string{"a", "b", "a", "c", "b", "a"}),
		vector.NewDatetime([]int64{base, base + 1, base + 2, base, base + 9, base + 1}, nil),
	})
}

type codecCase struct {
	name string
	plan algebra.Node
}

// codecCases covers every node kind the codec encodes — every Join and
// Window kind among them — over one source frame, so each plan has one leaf.
func codecCases() []codecCase {
	src := &algebra.Source{DF: codecFrame(), Name: "src"}
	data := []byte("k,v\n1,2\n3,4\n1,6\n")
	scan := &algebra.Scan{
		Name:    "csv",
		Columns: []string{"k", "v"},
		Data:    data,
		Options: core.DefaultCSVOptions(),
	}
	where := expr.WhereCompare("t", vector.CmpGt, types.DatetimeFromNanos(1_600_000_000_100_000_000)).
		And("s", vector.CmpNe, types.String("c")).
		And("v", vector.CmpNe, types.Null()).
		And("k", vector.CmpGe, types.IntValue(1))
	right := &algebra.Rename{Input: src, Mapping: map[string]string{"v": "v2", "s": "s2", "t": "t2"}}
	numeric := &algebra.Projection{Input: src, Cols: []string{"k", "v"}}
	cases := []codecCase{
		{"source", src},
		{"scan", &algebra.Selection{Input: scan, Where: expr.WhereCompare("k", vector.CmpEq, types.IntValue(1))}},
		{"selection", &algebra.Selection{Input: src, Where: where, Desc: "ignored"}},
		{"selection zero terms", &algebra.Selection{Input: src, Where: &expr.Where{}}},
		{"projection", &algebra.Projection{Input: src, Cols: []string{"t", "k"}}},
		{"union", &algebra.Union{Left: src, Right: &algebra.Selection{Input: src, Where: where}}},
		{"difference", &algebra.Difference{Left: src, Right: &algebra.Selection{Input: src, Where: where}}},
		{"self-join", &algebra.Join{Left: src, Right: &algebra.Source{DF: src.DF, Name: "again"}, Kind: expr.JoinInner, OnLabels: true}},
		{"cross join", &algebra.Join{Left: src, Right: right, Kind: expr.JoinCross}},
		{"dropdup", &algebra.DropDuplicates{Input: src}},
		{"dropdup subset", &algebra.DropDuplicates{Input: src, Subset: []string{"k", "s"}}},
		{"groupby", &algebra.GroupBy{Input: src, Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggMean, As: "avg"}, {Agg: expr.AggSize}},
		}}},
		{"groupby as labels sorted", &algebra.GroupBy{
			Input: &algebra.Sort{Input: src, Order: expr.SortOrder{{Col: "s"}}},
			Spec: expr.GroupBySpec{
				Keys: []string{"s"}, Aggs: []expr.AggSpec{{Col: "t", Agg: expr.AggMax, As: "latest"}},
				AsLabels: true, Sorted: true,
			},
		}},
		{"sort", &algebra.Sort{Input: src, Order: expr.SortOrder{{Col: "k", Desc: true}, {Col: "t"}}}},
		{"sort by labels", &algebra.Sort{Input: &algebra.ToLabels{Input: src, Col: "s"}, ByLabels: true}},
		{"rename", &algebra.Rename{Input: src, Mapping: map[string]string{"k": "key", "v": "value", "t": "when"}}},
		{"rename empty", &algebra.Rename{Input: src, Mapping: map[string]string{}}},
		{"window empty cols", &algebra.Window{Input: src, Spec: expr.WindowSpec{Kind: expr.WindowShift, Cols: []string{}}}},
		{"transpose", &algebra.Transpose{Input: numeric}},
		{"transpose schema", &algebra.Transpose{Input: numeric, Schema: []types.Domain{
			types.Float, types.Float, types.Float, types.Float, types.Float, types.Float,
		}}},
		{"tolabels", &algebra.ToLabels{Input: src, Col: "k"}},
		{"fromlabels", &algebra.FromLabels{Input: &algebra.ToLabels{Input: src, Col: "s"}, Label: "idx"}},
		{"induce", &algebra.Induce{Input: src}},
		{"limit", &algebra.Limit{Input: src, N: 4}},
		{"limit negative", &algebra.Limit{Input: src, N: -2}},
		{"topk", &algebra.TopK{Input: src, Order: expr.SortOrder{{Col: "v", Desc: true}, {Col: "k"}}, N: 3}},
	}
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft, expr.JoinRight, expr.JoinOuter} {
		cases = append(cases,
			codecCase{"join " + kind.String(), &algebra.Join{Left: src, Right: &algebra.Selection{Input: right, Where: where}, Kind: kind, On: []string{"k"}}},
			codecCase{"join labels " + kind.String(), &algebra.Join{Left: src, Right: &algebra.Limit{Input: right, N: 3}, Kind: kind, OnLabels: true}},
		)
	}
	for _, spec := range []expr.WindowSpec{
		{Kind: expr.WindowRolling, Size: 2, Agg: expr.AggSum, Cols: []string{"v"}},
		{Kind: expr.WindowRolling, Size: 3, Agg: expr.AggMean, MinPeriods: 1, Cols: []string{"v", "k"}, Reverse: true},
		{Kind: expr.WindowExpanding, Agg: expr.AggMax, Cols: []string{"k"}},
		{Kind: expr.WindowShift, Offset: -2},
		{Kind: expr.WindowDiff, Offset: 2, Cols: []string{"v"}},
	} {
		cases = append(cases, codecCase{"window", &algebra.Window{Input: src, Spec: spec}})
	}
	return cases
}

// Every case round-trips: the decoded plan computes exactly the original's
// frame and re-encodes to the same bytes.
func TestPlanCodecRoundTrip(t *testing.T) {
	eng := eager.New()
	for _, tc := range codecCases() {
		data, leaves, err := algebra.EncodePlan(tc.plan)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if len(leaves) != 1 {
			t.Errorf("%s: %d leaves, want the one source", tc.name, len(leaves))
		}
		decoded, err := algebra.DecodePlan(data, leaves)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		again, _, err := algebra.EncodePlan(decoded)
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding differs (err %v):\n%s", tc.name, err, algebra.Render(decoded))
		}
		want, err := eng.Execute(tc.plan)
		if err != nil {
			t.Fatalf("%s: original: %v", tc.name, err)
		}
		got, err := eng.Execute(decoded)
		if err != nil {
			t.Fatalf("%s: decoded: %v", tc.name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: decoded plan computes\n%s\nwant\n%s", tc.name, got, want)
		}
	}
}

// Closures and literals without a binary form are refused, wherever they
// sit in the plan.
func TestPlanCodecRefusesOpaque(t *testing.T) {
	src := &algebra.Source{DF: codecFrame()}
	refused := map[string]algebra.Node{
		"pred-only selection": &algebra.Selection{Input: src, Pred: func(expr.Row) bool { return true }},
		"map":                 &algebra.Map{Input: src, Fn: expr.MapFn{Name: "id", Elementwise: func(v types.Value) types.Value { return v }}},
		"composite operand":   &algebra.Selection{Input: src, Where: expr.WhereEquals("k", types.CompositeValue(&struct{}{}))},
		"under a join":        &algebra.Join{Left: src, Right: &algebra.Map{Input: src, Fn: algebra.IsNullFn()}, OnLabels: true},
	}
	for name, plan := range refused {
		if _, _, err := algebra.EncodePlan(plan); err == nil {
			t.Errorf("%s: encoded, want refused", name)
		}
	}
}

// wireRecord mirrors the codec's node record by field name, which is all
// gob matches on, so a test can write records the encoder never would.
type wireRecord struct {
	Node   any
	Inputs []int
	Leaf   int
}

func wireBytes(t testing.TB, recs []wireRecord) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// malformedPlans are records a worker may receive off the network.
func malformedPlans(t testing.TB) map[string][]byte {
	leaf, sel := wireRecord{}, &algebra.Selection{}
	return map[string][]byte{
		"garbage":  []byte("not a plan"),
		"no nodes": wireBytes(t, []wireRecord{}),
		// The operator's registered name, one letter off.
		"unknown op": bytes.Replace(wireBytes(t, []wireRecord{leaf, {Node: &algebra.Induce{}, Inputs: []int{0}}}),
			[]byte("algebra.Induce"), []byte("algebra.Xnduce"), -1),
		"leaf with input": wireBytes(t, []wireRecord{leaf, {Inputs: []int{0}}}),
		"missing input":   wireBytes(t, []wireRecord{leaf, {Node: sel}}),
		"extra input":     wireBytes(t, []wireRecord{leaf, {Node: sel, Inputs: []int{0, 0}}}),
		"forward input":   wireBytes(t, []wireRecord{leaf, {Node: sel, Inputs: []int{1}}}),
		"negative input":  wireBytes(t, []wireRecord{leaf, {Node: sel, Inputs: []int{-1}}}),
		"leaf range":      wireBytes(t, []wireRecord{{Leaf: 1}}),
		"negative leaf":   wireBytes(t, []wireRecord{{Leaf: -1}}),
	}
}

func TestDecodePlanRejectsMalformed(t *testing.T) {
	leaves := []algebra.Node{&algebra.Source{DF: core.Empty()}}
	for name, data := range malformedPlans(t) {
		if n, err := algebra.DecodePlan(data, leaves); err == nil {
			t.Errorf("%s: decoded to\n%s", name, algebra.Render(n))
		}
	}
}

// The worker's decode path over arbitrary bytes: an error, or a plan whose
// re-encoding decodes to a plan with the same encoding — never a panic.
func FuzzDecodePlan(f *testing.F) {
	for _, tc := range codecCases() {
		data, _, err := algebra.EncodePlan(tc.plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range malformedPlans(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := algebra.DecodePlan(data, []algebra.Node{&algebra.Source{DF: core.Empty()}})
		if err != nil {
			return
		}
		again, leaves, err := algebra.EncodePlan(n)
		if err != nil {
			t.Fatalf("decoded plan does not encode: %v\n%s", err, algebra.Render(n))
		}
		m, err := algebra.DecodePlan(again, leaves)
		if err != nil {
			t.Fatalf("re-encoded plan does not decode: %v\n%s", err, algebra.Render(n))
		}
		if third, _, err := algebra.EncodePlan(m); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-decoded plan changed (err %v):\n%s\nvs\n%s", err, algebra.Render(n), algebra.Render(m))
		}
	})
}
