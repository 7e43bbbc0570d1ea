package modin

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
)

// BenchmarkShuffledGroupBy times paperbench's shuffle_wide groupby_hi at
// full size — Sum("amount") by "key" over the 75,000-row fact frame of
// shuffledJoinPlan, about 25,000 distinct keys — through benchShuffledPlan;
// the one-worker time over eager's is the groupby's work ratio:
//
//	go test -run '^$' -bench ShuffledGroupBy -benchmem ./internal/modin
func BenchmarkShuffledGroupBy(b *testing.B) {
	benchShuffledPlan(b, &algebra.GroupBy{
		Input: shuffledJoinPlan().Left,
		Spec:  expr.GroupBySpec{Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "amount", Agg: expr.AggSum}}},
	})
}
