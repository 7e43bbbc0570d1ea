package modin

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vector"
)

// shuffledJoinPlan is paperbench's shuffle_wide join at full size: a
// 75,000-row fact frame drawing its keys from a 26,500-key space, inner
// joined on "key" to a 70,000-row dimension holding every key once, in
// shuffled order. The dimension is above the default broadcast limit, so on
// two or more bands the join is key-shuffled.
func shuffledJoinPlan() *algebra.Join { return factDimJoin(70_000) }

// factDimJoin is shuffledJoinPlan's join against a dimension of dimRows
// rows, keys 0 to dimRows-1 in shuffled order.
func factDimJoin(dimRows int) *algebra.Join {
	const factRows, keySpace = 75_000, 26_500
	rng := rand.New(rand.NewSource(7))
	key := make([]int64, factRows)
	amount := make([]float64, factRows)
	qty := make([]int64, factRows)
	qtyNull := make([]bool, factRows)
	region := make([]int32, factRows)
	flag := make([]string, factRows)
	regions := []string{"north", "south", "east", "west", "centre", "coast", "hills", "plains"}
	for i := range key {
		key[i] = int64(rng.Intn(keySpace))
		amount[i] = rng.Float64() * 1000
		qty[i], qtyNull[i] = 1+int64(rng.Intn(10)), rng.Intn(10) == 0
		region[i] = int32(rng.Intn(len(regions)))
		flag[i] = []string{"Y", "N", "N", "N"}[rng.Intn(4)]
	}
	fact := core.MustNew([]string{"key", "amount", "qty", "region", "flag"}, []vector.Vector{
		vector.NewInt(key, nil),
		vector.NewFloat(amount, nil),
		vector.NewInt(qty, qtyNull),
		vector.NewDict(region, regions, nil),
		vector.NewObjectFromStrings(flag),
	})
	dimKey := make([]int64, dimRows)
	for i, p := range rng.Perm(dimRows) {
		dimKey[i] = int64(p)
	}
	weight := make([]float64, dimRows)
	category := make([]int64, dimRows)
	for i := range weight {
		weight[i] = rng.Float64()
		category[i] = int64(rng.Intn(20))
	}
	dim := core.MustNew([]string{"key", "weight", "category"}, []vector.Vector{
		vector.NewInt(dimKey, nil),
		vector.NewFloat(weight, nil),
		vector.NewInt(category, nil),
	})
	return &algebra.Join{
		Left:  &algebra.Source{DF: fact, Name: "fact"},
		Right: &algebra.Source{DF: dim, Name: "dim"},
		Kind:  expr.JoinInner,
		On:    []string{"key"},
	}
}

// BenchmarkShuffledJoin times the key-shuffled join at shuffle_wide's shape
// on the default pool (at least two bands), on a one-worker pool at two
// bands — whose time over eager's is the join's work ratio — and eager. The
// dim1k cases join the same fact frame to a 1,000-row dimension, under the
// broadcast limit, by both strategies on the default pool: the gap between
// them is why the engine keeps the broadcast join.
//
//	go test -run '^$' -bench ShuffledJoin -benchmem ./internal/modin
func BenchmarkShuffledJoin(b *testing.B) {
	plan, small := shuffledJoinPlan(), factDimJoin(1_000)
	one := exec.NewPool(1)
	defer one.Close()
	bands := max(2, exec.Default.Workers())
	for _, c := range []struct {
		name     string
		plan     *algebra.Join
		e        algebra.Engine
		shuffled bool
	}{
		{"shuffled", plan, New(WithBands(bands)), true},
		{"shuffled-1worker", plan, New(WithPool(one), WithBands(2)), true},
		{"eager", plan, eager.New(), false},
		{"dim1k-broadcast", small, New(WithBands(bands)), false},
		{"dim1k-shuffled", small, New(WithBands(bands), withBuildLimit(0)), true},
	} {
		if m, ok := c.e.(*Engine); ok && m.chooseJoinStrategy(c.plan).shuffled != c.shuffled {
			b.Fatalf("%s: key-shuffled = %v, want %v", c.name, !c.shuffled, c.shuffled)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.e.Execute(c.plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
