package algebra

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

// exactAggs is oracleAggs cut to the kinds ExactCombine accepts: COUNT and
// SIZE over columns and the whole row, MIN and MAX over Int, Float (with
// NaN), Int-then-Float, Object, Datetime and Bool storage.
func exactAggs() []expr.AggSpec {
	var aggs []expr.AggSpec
	for _, a := range oracleAggs() {
		if ExactCombine(expr.GroupBySpec{Aggs: []expr.AggSpec{a}}) {
			aggs = append(aggs, a)
		}
	}
	return aggs
}

// routeRows cuts a band's rows into buckets by key hash, as a row-routing
// shuffle does (SummarizeGroupKeys' hash of each row's key % buckets).
func routeRows(t *testing.T, band *core.DataFrame, keys []string, buckets int) []*core.DataFrame {
	t.Helper()
	sum, err := SummarizeGroupKeys(band, keys)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]int, buckets)
	for i, d := range sum.Ordinals {
		b := sum.Hashes[d] % uint64(buckets)
		rows[b] = append(rows[b], i)
	}
	out := make([]*core.DataFrame, buckets)
	for b := range out {
		out[b] = band.TakeRows(rows[b])
	}
	return out
}

// roundTrip passes a frame through the block codec.
func roundTrip(t *testing.T, df *core.DataFrame) *core.DataFrame {
	t.Helper()
	buf, err := core.EncodeFrame(nil, df)
	if err != nil {
		t.Fatal(err)
	}
	out, rest, err := core.DecodeFrame(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing bytes)", err, len(rest))
	}
	return out
}

// checkStatesMatchRows cuts each band into per-bucket state frames and into
// per-bucket routed rows, folds every bucket both ways in band order — the
// states through AddState (after a trip through the block codec when wire
// is set), the rows through AddFrame — and requires the finalized buckets
// to be identical, group order included.
func checkStatesMatchRows(t *testing.T, bands []*core.DataFrame, spec expr.GroupBySpec, buckets int, wire bool) {
	t.Helper()
	states := make([]*GroupPartial, buckets)
	rows := make([]*GroupPartial, buckets)
	for b := range states {
		states[b], rows[b] = NewGroupPartial(spec), NewGroupPartial(spec)
	}
	for r, band := range bands {
		g := NewGroupPartial(spec)
		if err := g.AddFrame(band); err != nil {
			t.Fatal(err)
		}
		cut, err := g.StateFrames(band, r, buckets)
		if err != nil {
			t.Fatal(err)
		}
		for b, rowPiece := range routeRows(t, band, spec.Keys, buckets) {
			st := cut[b]
			if wire {
				st = roundTrip(t, st)
			}
			if !IsGroupState(st, spec) {
				t.Fatalf("band %d bucket %d: not a state frame:\n%s", r, b, st)
			}
			if err := states[b].AddState(st); err != nil {
				t.Fatal(err)
			}
			if err := rows[b].AddFrame(rowPiece); err != nil {
				t.Fatal(err)
			}
		}
	}
	for b := range states {
		want, err := rows[b].Finalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := states[b].Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if d := frameDiff(want, got); d != "" {
			t.Fatalf("bucket %d of %d: %s\nrows:\n%s\nstates:\n%s", b, buckets, d, want, got)
		}
	}
}

// TestGroupStatesMatchRowFold: folding band states in band order gives the
// cells of folding the bands' routed rows in band order, over every oracle
// key storage (Dict tables shared and per band, views, Int, Float with NaN,
// Object, Datetime, Bool, two keys, no keys), with and without AsLabels,
// through the block codec, with empty bands, and with row hashes narrowed
// to one bit.
func TestGroupStatesMatchRowFold(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0x1} {
		restore := SetRowHashMaskForTesting(mask)
		for ki, kind := range oracleKeyKinds {
			for _, views := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(41 + ki)))
				bands, keys := oracleFrames(r, kind, 7, 40, views)
				bands = append(bands, bands[0].SliceRows(0, 0), bands[1].SliceRows(0, 1))
				for _, asLabels := range []bool{false, true} {
					for _, buckets := range []int{1, 3} {
						t.Run(fmt.Sprintf("mask=%#x/%s/views=%v/labels=%v/buckets=%d", mask, kind, views, asLabels, buckets), func(t *testing.T) {
							spec := expr.GroupBySpec{Keys: keys, Aggs: exactAggs(), AsLabels: asLabels}
							checkStatesMatchRows(t, bands, spec, buckets, buckets == 3)
						})
					}
				}
			}
		}
		restore()
	}
}

// TestStateFramesRoundTripTheWire: a state frame decodes from its block
// form bit for bit — labels, declared domains, every cell's domain and
// value — and is still a state frame.
func TestStateFramesRoundTripTheWire(t *testing.T) {
	for ki, kind := range oracleKeyKinds {
		bands, keys := oracleFrames(rand.New(rand.NewSource(int64(7+ki))), kind, 1, 60, false)
		spec := expr.GroupBySpec{Keys: keys, Aggs: exactAggs()}
		g := NewGroupPartial(spec)
		if err := g.AddFrame(bands[0]); err != nil {
			t.Fatal(err)
		}
		cut, err := g.StateFrames(bands[0], 0, 2)
		if err != nil {
			t.Fatal(err)
		}
		for b, st := range cut {
			got := roundTrip(t, st)
			if d := frameDiff(st, got); d != "" {
				t.Fatalf("%s bucket %d: %s", kind, b, d)
			}
			for j := 0; j < st.NCols(); j++ {
				if st.DeclaredDomain(j) != got.DeclaredDomain(j) {
					t.Fatalf("%s bucket %d column %d declared %v, want %v", kind, b, j, got.DeclaredDomain(j), st.DeclaredDomain(j))
				}
			}
			if !IsGroupState(got, spec) {
				t.Fatalf("%s bucket %d: decoded frame is not a state frame", kind, b)
			}
		}
	}
}

// TestOnlyExactCombineSpecsHaveStates pins which specs route states: SUM,
// MEAN, std, COLLECT, a whole-row extreme and a spec without aggregates
// route rows.
func TestOnlyExactCombineSpecsHaveStates(t *testing.T) {
	for _, a := range []expr.AggSpec{
		{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggMean}, {Col: "v", Agg: expr.AggStd},
		{Agg: expr.AggCollect}, {Agg: expr.AggMin},
	} {
		if ExactCombine(expr.GroupBySpec{Aggs: []expr.AggSpec{{Agg: expr.AggSize}, a}}) {
			t.Errorf("%v combines exactly", a.Agg)
		}
	}
	if ExactCombine(expr.GroupBySpec{Keys: []string{"k"}}) {
		t.Error("a spec without aggregates combines exactly")
	}
	spec := expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize}, {Col: "v", Agg: expr.AggMin}}}
	if !ExactCombine(spec) {
		t.Fatal("SIZE and MIN do not combine exactly")
	}
}

// FuzzGroupStateMatchesRowFold is TestGroupStatesMatchRowFold over drawn
// key kinds, band counts and sizes, views, label modes, bucket counts, the
// block codec and hash masks.
func FuzzGroupStateMatchesRowFold(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(4), uint8(30), uint8(3), false, false)
	f.Add(int64(2), uint8(1), uint8(6), uint8(12), uint8(1), true, true)
	f.Add(int64(3), uint8(8), uint8(3), uint8(50), uint8(7), true, false)
	f.Fuzz(func(t *testing.T, seed int64, kind, bands, rows, buckets uint8, views, narrow bool) {
		if narrow {
			defer SetRowHashMaskForTesting(0x1)()
		}
		r := rand.New(rand.NewSource(seed))
		fs, keys := oracleFrames(r, oracleKeyKinds[int(kind)%len(oracleKeyKinds)], 1+int(bands)%8, int(rows)%64, views)
		spec := expr.GroupBySpec{Keys: keys, Aggs: exactAggs(), AsLabels: seed%2 == 0}
		checkStatesMatchRows(t, fs, spec, 1+int(buckets)%8, seed%3 == 0)
	})
}
