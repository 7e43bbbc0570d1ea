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
// shuffled order.
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

// BenchmarkJoin times the join at shuffle_wide's shape on the default pool
// (at least two bands), on a one-worker pool at two bands — whose time over
// eager's is the join's work ratio — and eager. The dim1k case joins the
// same fact frame to a 1,000-row dimension on the default pool.
//
//	go test -run '^$' -bench '^BenchmarkJoin$' -benchmem ./internal/modin
func BenchmarkJoin(b *testing.B) {
	plan := shuffledJoinPlan()
	one := exec.NewPool(1)
	defer one.Close()
	bands := max(2, exec.Default.Workers())
	for _, c := range []struct {
		name string
		plan *algebra.Join
		e    algebra.Engine
	}{
		{"dim70k", plan, New(WithBands(bands))},
		{"dim70k-1worker", plan, New(WithPool(one), WithBands(2))},
		{"dim70k-eager", plan, eager.New()},
		{"dim1k", factDimJoin(1_000), New(WithBands(bands))},
	} {
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
