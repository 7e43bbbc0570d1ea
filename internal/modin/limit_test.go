package modin

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
)

// limitEngines are the engines every LIMIT case runs on: 1, 2 and 7 bands,
// and 7 bands on a one-worker pool.
func limitEngines(one *exec.Pool) map[string]*Engine {
	return map[string]*Engine{
		"bands=1": New(WithBands(1)), "bands=2": New(WithBands(2)), "bands=7": New(WithBands(7)),
		"1worker": New(WithPool(one), WithBands(7)),
	}
}

// limitCounts are the head and tail lengths every LIMIT case takes from a
// 70-row input: none, one row, a 7-band boundary, inside a band, all rows
// and more — each as a head (n > 0) and as a tail (n < 0).
var limitCounts = []int{0, 1, -1, 10, -10, 13, -13, 70, -70, 75, -75}

// assertLimitMatchesEager runs LIMIT(n) over input on e and on the eager
// engine and requires bitDiff-identical results.
func assertLimitMatchesEager(t *testing.T, e *Engine, input algebra.Node, n int, streamed bool) {
	t.Helper()
	plan := &algebra.Limit{Input: input, N: n}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	var got *core.DataFrame
	withDeadline(t, 30*time.Second, func() { got, err = e.Execute(plan) })
	if err != nil {
		t.Fatalf("modin: %v", err)
	}
	if d := bitDiff(want, got, streamed); d != "" {
		t.Errorf("LIMIT(%d) differs from eager: %s", n, d)
	}
}

// TestLimitMatchesEager: a head and a tail, at every length, equal eager
// cell for cell and in declared domains over a source, and after a filter
// that empties the band a head or a tail ends in.
func TestLimitMatchesEager(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	src := &algebra.Source{DF: testFrame(70), Name: "t"}
	drop := func(lo, hi int64) algebra.Node {
		return &algebra.Selection{Input: src, Desc: fmt.Sprintf("id outside [%d, %d)", lo, hi), Pred: func(r expr.Row) bool {
			id := r.ByName("id").Int()
			return id < lo || id >= hi
		}}
	}
	inputs := map[string]algebra.Node{
		"source": src,
		// At 7 bands of 10 rows: a head of 13 ends in band 1, a tail of 13
		// in band 5; these filters leave those bands empty.
		"head boundary emptied": drop(10, 20),
		"tail boundary emptied": drop(50, 60),
	}
	for name, e := range limitEngines(one) {
		for in, input := range inputs {
			t.Run(name+" "+in, func(t *testing.T) {
				for _, n := range limitCounts {
					assertLimitMatchesEager(t, e, input, n, false)
				}
			})
		}
	}
}

// TestStreamedLimitMatchesEager: a head and a tail over a streamed scan cut
// into more bands than the pool has workers.
func TestStreamedLimitMatchesEager(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	scan := scanOver(t, testFrame(70), 4)
	for name, e := range limitEngines(one) {
		t.Run(name, func(t *testing.T) {
			for _, n := range limitCounts {
				assertLimitMatchesEager(t, e, scan, n, true)
			}
		})
	}
}

// TestOneWorkerCanary runs stages over a groupby restore and over a
// transpose on a one-worker pool at 7 bands: each must equal eager cell for
// cell and in declared domains, and must not hang — no pool worker may wait
// on an unfinished task.
func TestOneWorkerCanary(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	m := make([][]any, 21)
	for i := range m {
		var b any = i * 2
		if i%3 == 0 {
			b = nil
		}
		m[i] = []any{i % 4, b, float64(i) / 2}
	}
	matrix := &algebra.Source{DF: algebra.InduceFrame(core.MustFromRecords([]string{"a", "b", "c"}, m)), Name: "m"}
	src := &algebra.Source{DF: algebra.InduceFrame(testFrame(90)), Name: "t"}
	for name, plan := range map[string]algebra.Node{
		"groupby → sort → head": &algebra.Limit{
			Input: &algebra.Sort{Input: groupByPlan(src), Order: expr.SortOrder{{Col: "total", Desc: true}}},
			N:     2,
		},
		"transpose → IsNA → groupby": &algebra.GroupBy{
			Input: &algebra.Map{Input: &algebra.Transpose{Input: matrix}, Fn: algebra.IsNullFn()},
			Spec:  expr.GroupBySpec{Keys: []string{"0"}, Aggs: []expr.AggSpec{{Col: "3", Agg: expr.AggCount, As: "n"}}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			want, err := eager.New().Execute(plan)
			if err != nil {
				t.Fatalf("eager: %v", err)
			}
			var got *core.DataFrame
			withDeadline(t, 30*time.Second, func() { got, err = New(WithPool(one), WithBands(7)).Execute(plan) })
			if err != nil {
				t.Fatalf("modin: %v", err)
			}
			if d := bitDiff(want, got, false); d != "" {
				t.Errorf("differs from eager: %s", d)
			}
		})
	}
}
