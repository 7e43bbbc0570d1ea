package modin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/physical"
	"repro/internal/types"
	"repro/internal/vector"
)

// stateFrame is n rows over every key and value storage the state path
// routes: ik an Int key with nulls, ok an Object key holding both a null
// and the literal "NA", dk a Dict key, tk a Datetime key, iv Int values
// with nulls, fv Float values with NaN and nulls, sv Object values.
func stateFrame(n int) *core.DataFrame {
	r := rand.New(rand.NewSource(int64(n)))
	ik, iv, tk := make([]int64, n), make([]int64, n), make([]int64, n)
	fv := make([]float64, n)
	ok, sv := make([]string, n), make([]string, n)
	codes := make([]int32, n)
	nulls := func(every int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = r.Intn(every) == 0
		}
		return m
	}
	for i := 0; i < n; i++ {
		ik[i] = int64(r.Intn(5))
		iv[i] = int64(r.Intn(200) - 100)
		tk[i] = int64(r.Intn(3)) * 1e9
		fv[i] = []float64{0.5, -2.25, math.NaN(), 1e300, math.Copysign(0, -1)}[r.Intn(5)]
		ok[i] = []string{"x", "NA", "y", "z"}[r.Intn(4)]
		sv[i] = fmt.Sprintf("s%02d", r.Intn(40))
		codes[i] = int32(r.Intn(4))
	}
	cols := []vector.Vector{
		vector.NewInt(ik, nulls(7)), vector.NewObject(ok, nulls(9)),
		vector.NewDict(codes, []string{"red", "green", "blue", "NA"}, nulls(8)), vector.NewDatetime(tk, nulls(10)),
		vector.NewInt(iv, nulls(5)), vector.NewFloat(fv, nulls(6)), vector.NewObject(sv, nulls(4)),
	}
	names := []string{"ik", "ok", "dk", "tk", "iv", "fv", "sv"}
	labels, domains := make([]types.Value, len(cols)), make([]types.Domain, len(cols))
	for j, c := range cols {
		labels[j], domains[j] = types.String(names[j]), c.Domain()
	}
	df, err := core.Build(cols, nil, labels, domains, nil)
	if err != nil {
		panic(err)
	}
	return df
}

// stateAggs is every aggregate the state path carries: SIZE, COUNT over a
// column and over the whole row, MIN and MAX over Int, Float with NaN,
// Object and Datetime storage.
var stateAggs = []expr.AggSpec{
	{Agg: expr.AggSize, As: "size"}, {Agg: expr.AggCount, As: "rows"},
	{Col: "iv", Agg: expr.AggCount, As: "n_iv"}, {Col: "fv", Agg: expr.AggCount, As: "n_fv"},
	{Col: "iv", Agg: expr.AggMin, As: "lo_iv"}, {Col: "iv", Agg: expr.AggMax, As: "hi_iv"},
	{Col: "fv", Agg: expr.AggMin, As: "lo_fv"}, {Col: "fv", Agg: expr.AggMax, As: "hi_fv"},
	{Col: "sv", Agg: expr.AggMin, As: "lo_sv"}, {Col: "sv", Agg: expr.AggMax, As: "hi_sv"},
	{Col: "tk", Agg: expr.AggMax, As: "hi_tk"},
}

// TestStatePathMatchesEager: a COUNT/SIZE/MIN/MAX groupby routes band
// states and still agrees with the eager engine cell for cell — keyless and
// on an Int key with nulls, an Object key, a Dict key, a Datetime key and
// two keys, with and without AsLabels, on frames that leave bands empty or
// one row long, at 1, 2 and 7 bands, resident and with every non-empty
// piece spilled, and with row hashes narrowed to one bit.
func TestStatePathMatchesEager(t *testing.T) {
	keySets := [][]string{nil, {"ik"}, {"ok"}, {"dk"}, {"tk"}, {"ik", "ok"}}
	for _, mask := range []uint64{^uint64(0), 0x1} {
		restore := algebra.SetRowHashMaskForTesting(mask)
		for _, rows := range []int{0, 1, 3, 7, 300} {
			df := stateFrame(rows)
			for _, bands := range []int{1, 2, 7} {
				for _, budget := range []int{0, 1} {
					for _, keys := range keySets {
						for _, asLabels := range []bool{false, true} {
							if asLabels && keys == nil {
								continue
							}
							spec := expr.GroupBySpec{Keys: keys, Aggs: stateAggs, AsLabels: asLabels}
							t.Run(fmt.Sprintf("mask=%#x/rows=%d/bands=%d/budget=%d/keys=%v/labels=%v", mask, rows, bands, budget, keys, asLabels), func(t *testing.T) {
								e := New(WithBands(bands), WithShuffleSpillBudget(budget))
								defer e.ReleaseSpill()
								assertEngineAgreesWithEager(t, e, &algebra.GroupBy{Input: &algebra.Source{DF: df}, Spec: spec})
								// Empty pieces spill only once the resident ones fill the budget.
								if spilled := e.Stats().SpilledPieces.Load(); (budget == 0 && spilled > 0) || (budget > 0 && rows > 0 && spilled == 0) {
									t.Errorf("%d pieces spilled under budget %d", spilled, budget)
								}
							})
						}
					}
				}
			}
		}
		restore()
	}
}

// stateGroupBys are streamed COUNT/SIZE/MIN/MAX groupbys over routingCSV's
// band-sensitive columns: str_k is Category with a table of its own in
// every band of many rows, num_k is Int in some bands and Float in others,
// ts_k is a Datetime key, mixed_v an extreme that is Int in early bands and
// Float in late ones, null_v a value null throughout late bands.
var stateGroupBys = []expr.GroupBySpec{
	{Keys: []string{"str_k"}, Aggs: []expr.AggSpec{
		{Agg: expr.AggSize}, {Col: "mixed_v", Agg: expr.AggCount}, {Col: "mixed_v", Agg: expr.AggMin}, {Col: "mixed_v", Agg: expr.AggMax},
		{Col: "null_v", Agg: expr.AggCount}, {Col: "null_v", Agg: expr.AggMin}, {Col: "null_v", Agg: expr.AggMax},
	}},
	{Keys: []string{"num_k"}, Aggs: []expr.AggSpec{{Col: "ts_v", Agg: expr.AggMin}, {Col: "ts_v", Agg: expr.AggMax}, {Col: "str_k", Agg: expr.AggMax}}},
	{Keys: []string{"ts_k"}, Aggs: []expr.AggSpec{{Col: "str_k", Agg: expr.AggMin}, {Col: "null_v", Agg: expr.AggCount}}},
	{Keys: []string{"num_k", "str_k"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize}, {Col: "mixed_v", Agg: expr.AggMax}}, AsLabels: true},
	{Aggs: []expr.AggSpec{{Col: "null_v", Agg: expr.AggCount}, {Col: "mixed_v", Agg: expr.AggMin}}},
}

// Streamed scan → [Where] → COUNT/SIZE/MIN/MAX GroupBy agrees with the
// eager engine at band sizes of one row, a few rows and most of the file,
// on 1, 2 and 7 buckets, resident and with every routed state spilled.
func TestStreamedStatePathMatchesEager(t *testing.T) {
	text := routingCSV()
	for _, bandRows := range []int{1, 7, 64} {
		for _, budget := range []int{0, 1} {
			for _, bands := range []int{1, 2, 7} {
				for _, spec := range stateGroupBys {
					if !algebra.ExactCombine(spec) {
						t.Fatalf("%v does not take the state path", spec.Aggs)
					}
					for _, filtered := range []bool{false, true} {
						var in algebra.Node = textScan(text, bandRows)
						if filtered {
							in = &algebra.Selection{Input: in, Where: routingWhere}
						}
						t.Run(fmt.Sprintf("band %d budget %d bands %d groupby %v filtered=%v", bandRows, budget, bands, spec.Keys, filtered), func(t *testing.T) {
							e := New(WithBands(bands), WithShuffleSpillBudget(budget))
							defer e.ReleaseSpill()
							assertEngineAgreesWithEager(t, e, &algebra.GroupBy{Input: in, Spec: spec})
							if spilled := e.Stats().SpilledPieces.Load(); (budget > 0) != (spilled > 0) {
								t.Errorf("%d pieces spilled under budget %d", spilled, budget)
							}
						})
					}
				}
			}
		}
	}
}

// A band of an exact-combine groupby routes one state row per group; any
// other spec routes the band's rows.
func TestGroupBandRoutesStatesOrRows(t *testing.T) {
	df := stateFrame(300)
	exact := expr.GroupBySpec{Keys: []string{"ik", "ok"}, Aggs: stateAggs}
	pieces, err := PartitionGroupBand(df, exact, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := algebra.GroupByFrame(df, exact)
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	for _, p := range pieces {
		if !algebra.IsGroupState(p, exact) {
			t.Fatalf("exact-combine band routed rows:\n%s", p)
		}
		groups += p.NRows()
	}
	if groups != whole.NRows() {
		t.Errorf("routed %d states for %d groups", groups, whole.NRows())
	}

	summed := expr.GroupBySpec{Keys: exact.Keys, Aggs: append([]expr.AggSpec{{Col: "fv", Agg: expr.AggSum}}, stateAggs...)}
	if pieces, err = PartitionGroupBand(df, summed, 0, 3); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, p := range pieces {
		if algebra.IsGroupState(p, summed) || p.NCols() != df.NCols() {
			t.Fatalf("SUM band routed states:\n%s", p)
		}
		rows += p.NRows()
	}
	if rows != df.NRows() {
		t.Errorf("routed %d rows of %d", rows, df.NRows())
	}
}

// A state frame comes back from the engine's piece store bit for bit: the
// spill ledger writes it out under a one-cell budget and the take reads
// back the same labels, declared domains and cells, still a state frame
// whose fold equals the fold of the frame that went in.
func TestStateFramesSpillBitExact(t *testing.T) {
	df := stateFrame(300)
	spec := expr.GroupBySpec{Keys: []string{"dk", "tk"}, Aggs: stateAggs}
	pieces, err := PartitionGroupBand(df, spec, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithShuffleSpillBudget(1))
	defer e.ReleaseSpill()
	var taken []*core.DataFrame
	for b, p := range pieces {
		take, err := e.spill.Admit(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := take()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(p) || !algebra.IsGroupState(got, spec) {
			t.Fatalf("bucket %d changed in the store:\n%s\nwant:\n%s", b, got, p)
		}
		for j := 0; j < p.NCols(); j++ {
			if got.DeclaredDomain(j) != p.DeclaredDomain(j) || got.TypedCol(j).Domain() != p.TypedCol(j).Domain() {
				t.Fatalf("bucket %d column %d: domain %v declared %v, want %v declared %v", b, j,
					got.TypedCol(j).Domain(), got.DeclaredDomain(j), p.TypedCol(j).Domain(), p.DeclaredDomain(j))
			}
			for i := 0; i < p.NRows(); i++ {
				if w, g := p.Value(i, j), got.Value(i, j); w.Domain() != g.Domain() || w.IsNull() != g.IsNull() || !w.Equal(g) {
					t.Fatalf("bucket %d cell (%d, %d) = %v, want %v", b, i, j, g, w)
				}
			}
		}
		taken = append(taken, got)
	}
	if e.Stats().SpilledPieces.Load() != int64(len(pieces)) {
		t.Errorf("%d of %d state pieces spilled", e.Stats().SpilledPieces.Load(), len(pieces))
	}
	want, _, err := foldGroupPieces(physical.PiecesOf(pieces...), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := foldGroupPieces(physical.PiecesOf(taken...), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("spilled states fold to\n%s\nwant:\n%s", got, want)
	}
}

// A float SUM over keys that each hold more than a fair share of the rows
// merges as one sequential fold per bucket, so MODIN's sums stay
// bit-identical to eager's at every band count on a multi-worker pool.
// Splitting such a bucket into partials merged afterwards reassociates the
// sums.
func TestSkewedFloatSumMatchesEager(t *testing.T) {
	const rows = 4000
	r := rand.New(rand.NewSource(11))
	keys, vals := make([]string, rows), make([]float64, rows)
	for i := range keys {
		keys[i] = []string{"CMT", "VTS", "DDS"}[r.Intn(3)]
		vals[i] = r.Float64() * 1000
	}
	df := core.MustNew([]string{"vendor", "amount"}, []vector.Vector{vector.NewObject(keys, nil), vector.NewFloat(vals, nil)})
	plan := &algebra.GroupBy{Input: &algebra.Source{DF: df}, Spec: expr.GroupBySpec{
		Keys: []string{"vendor"},
		Aggs: []expr.AggSpec{{Col: "amount", Agg: expr.AggSum}, {Col: "amount", Agg: expr.AggMean, As: "avg"}},
	}}
	pool := exec.NewPool(4)
	defer pool.Close()
	for _, bands := range []int{2, 4, 7} {
		t.Run(fmt.Sprintf("bands=%d", bands), func(t *testing.T) {
			assertEngineAgreesWithEager(t, New(WithPool(pool), WithBands(bands)), plan)
		})
	}
}
