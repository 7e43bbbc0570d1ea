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
func shuffledJoinPlan() *algebra.Join {
	const factRows, keySpace, dimRows = 75_000, 26_500, 70_000
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
// bands — whose time over eager's is the join's work ratio — and eager:
//
//	go test -run '^$' -bench ShuffledJoin -benchmem ./internal/modin
func BenchmarkShuffledJoin(b *testing.B) {
	plan := shuffledJoinPlan()
	one := exec.NewPool(1)
	defer one.Close()
	for _, c := range []struct {
		name string
		e    algebra.Engine
	}{
		{"shuffled", New(WithBands(max(2, exec.Default.Workers())))},
		{"shuffled-1worker", New(WithPool(one), WithBands(2))},
		{"eager", eager.New()},
	} {
		if m, ok := c.e.(*Engine); ok && !m.chooseJoinStrategy(plan).shuffled {
			b.Fatalf("%s: the join is not key-shuffled", c.name)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.e.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
