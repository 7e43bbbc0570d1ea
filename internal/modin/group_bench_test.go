package modin

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
)

// BenchmarkShuffledGroupBy times paperbench's shuffle_wide groupby_hi at
// full size — Sum("amount") by "key" over the 75,000-row fact frame of
// shuffledJoinPlan, about 25,000 distinct keys — on the default pool (at
// least two bands), on a one-worker pool at two bands, whose time over
// eager's is the groupby's work ratio, and eager:
//
//	go test -run '^$' -bench ShuffledGroupBy -benchmem ./internal/modin
func BenchmarkShuffledGroupBy(b *testing.B) {
	plan := &algebra.GroupBy{
		Input: shuffledJoinPlan().Left,
		Spec:  expr.GroupBySpec{Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "amount", Agg: expr.AggSum}}},
	}
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
