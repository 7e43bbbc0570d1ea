package modin

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
)

// benchShuffledPlan runs plan on the default pool (at least two bands), on a
// one-worker pool at two bands, whose time over eager's is the operator's
// work ratio, and eager.
func benchShuffledPlan(b *testing.B, plan algebra.Node) {
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

// BenchmarkShuffledSort times paperbench's shuffle_wide sort_full at full
// size — the 75,000-row fact frame of shuffledJoinPlan sorted by its Float
// "amount" — through benchShuffledPlan:
//
//	go test -run '^$' -bench ShuffledSort -benchmem ./internal/modin
func BenchmarkShuffledSort(b *testing.B) {
	benchShuffledPlan(b, &algebra.Sort{Input: shuffledJoinPlan().Left, Order: expr.SortOrder{{Col: "amount"}}})
}

// BenchmarkShuffledDropDup times paperbench's shuffle_wide dropdup at full
// size — the fact frame's first row per "key", about 25,000 kept — through
// benchShuffledPlan:
//
//	go test -run '^$' -bench ShuffledDropDup -benchmem ./internal/modin
func BenchmarkShuffledDropDup(b *testing.B) {
	benchShuffledPlan(b, &algebra.DropDuplicates{Input: shuffledJoinPlan().Left, Subset: []string{"key"}})
}

// BenchmarkTransposeMap times paperbench's shuffle_wide transpose_map in
// the order the optimizer gives it (TransposePullUp): IsNA over the fact
// frame's first 10,000 rows, then TRANSPOSE, through benchShuffledPlan.
// MODIN transposes each band on its own, so allocs/op stays in the
// hundreds, not one per output column:
//
//	go test -run '^$' -bench TransposeMap -benchmem ./internal/modin
func BenchmarkTransposeMap(b *testing.B) {
	fact := shuffledJoinPlan().Left.(*algebra.Source)
	prefix := &algebra.Source{DF: fact.DF.SliceRows(0, 10_000).Compact(), Name: "prefix"}
	benchShuffledPlan(b, &algebra.Transpose{Input: &algebra.Map{Input: prefix, Fn: algebra.IsNullFn()}})
}
