package modin

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestShuffleRoutingUnderForcedCollisions narrows every row-key hash to a
// single bit, so the groupby shuffle's merges and the join's one hash table
// see constant hash collisions between distinct keys: the exemplar
// verification must still keep every key apart and both engines must agree
// exactly (group order, aggregates, row labels).
func TestShuffleRoutingUnderForcedCollisions(t *testing.T) {
	restore := algebra.SetRowHashMaskForTesting(0x1)
	defer restore()
	df := testFrame(200)
	bothEngines(t, &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Keys: []string{"dept", "val"},
			Aggs: []expr.AggSpec{
				{Col: "score", Agg: expr.AggSum, As: "total"},
				{Col: "score", Agg: expr.AggCount, As: "n"},
			},
		},
	})
	join := &algebra.Join{
		Left:  &algebra.Source{DF: df},
		Right: &algebra.Source{DF: testFrame(40).SliceRows(0, 9)},
		Kind:  expr.JoinInner,
		On:    []string{"dept"},
	}
	bothEngines(t, join)
	// The default engine runs the small join inline; at 2 and 7 bands every
	// left band probes the one collided table.
	for _, bands := range []int{2, 7} {
		assertEngineAgreesWithEager(t, New(WithBands(bands)), join)
	}
}

// TestShuffleGroupByNullVsNAKey routes a band-spanning frame whose key
// column holds both nulls and the literal string "NA" through the shuffled
// groupby: the hash summaries must keep them distinct and agree with the
// baseline engine.
func TestShuffleGroupByNullVsNAKey(t *testing.T) {
	const rows = 120
	data := make([]string, rows)
	nulls := make([]bool, rows)
	vals := make([]int64, rows)
	for i := range data {
		switch i % 4 {
		case 0:
			data[i] = "x"
		case 1:
			data[i] = "NA"
			nulls[i] = true // a true null
		case 2:
			data[i] = "NA" // the literal string
		case 3:
			data[i] = "y"
		}
		vals[i] = int64(i)
	}
	// Declare the key column Object: lazy induction at this cardinality
	// would pick Category, whose parse re-reads the literal "NA" as null —
	// a (pre-existing) parse-layer conflation this test is not about. With
	// the domain pinned, the cells flow to every task unchanged and group
	// identity is decided purely by the hash kernels.
	df := core.MustBuild(
		[]vector.Vector{vector.NewObject(data, nulls), vector.NewInt(vals, nil)},
		nil,
		[]types.Value{types.String("k"), types.String("v")},
		[]types.Domain{types.Object, types.Int},
		nil,
	)
	out := bothEngines(t, &algebra.GroupBy{
		Input: &algebra.Source{DF: df},
		Spec: expr.GroupBySpec{
			Keys: []string{"k"},
			Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggCount, As: "n"}},
		},
	})
	if out.NRows() != 4 {
		t.Fatalf("want 4 groups (x, null, \"NA\", y), got %d", out.NRows())
	}
	if !out.Value(1, 0).IsNull() {
		t.Error("second group key should be the null")
	}
	if got := out.Value(2, 0); !got.Equal(types.String("NA")) {
		t.Errorf("third group key should be the literal \"NA\", got %#v", got)
	}
}

// TestEnginesAgreeSelectionWhere runs the structured-predicate SELECTION on
// both engines (the kernel path fuses into MODIN band tasks).
func TestEnginesAgreeSelectionWhere(t *testing.T) {
	df := testFrame(100)
	w := expr.WhereNotNull("val").And("score", vector.CmpGt, types.FloatValue(2))
	out := bothEngines(t, &algebra.Selection{
		Input: &algebra.Source{DF: df},
		Where: w,
		Pred:  w.Predicate(),
	})
	want := algebra.SelectRows(df, w.Predicate())
	if out.NRows() != want.NRows() {
		t.Errorf("Where rows = %d, predicate fallback rows = %d", out.NRows(), want.NRows())
	}
}
