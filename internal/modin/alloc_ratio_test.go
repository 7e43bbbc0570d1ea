package modin

import (
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
)

// allocRatioCase is one statement of TestAllocRatioCeilings.
type allocRatioCase struct {
	name    string
	plan    algebra.Node
	ceiling float64 // on MODIN's bytes ÷ eager's
}

// allocRatioCases are shuffle_wide's statements over the shuffledJoinPlan
// fixtures, each with the ceiling on the bytes MODIN allocates over the
// bytes eager allocates for it (TestAllocRatioCeilings). A ceiling is the
// measured ratio plus 5 %; a change that lowers a ratio lowers its ceiling
// with it, so the next change cannot give the saving back unnoticed.
//
// Ratios (1-worker pool, 2 bands; Go 1.24, linux/amd64) — copied at
// gather: read at d22990a, where the gather copied every band into one
// array; kept: since results keep their bands (vector.Stack); banded: since
// TRANSPOSE transposes each row band on its own; keyed: since the keyed
// kernels hash a chunk of rows at a time, grow their per-key state by
// doubling, and positional labels are sequences (vector.Range); routed:
// since the groupby router keeps each row's bucket in one byte; first:
// since a bucket merge reads its groups' first positions into one exact
// slice, and every keyed kernel resolves ids through keyRows — and the
// ceilings they set:
//
//	statement        copied at gather   kept    banded   keyed   routed   first   ceiling
//	groupby_hi       2.07               1.82    1.82     1.77    1.70     1.60    1.68
//	sort             1.92               1.29    1.29     1.29    1.29     1.29    1.35
//	join             1.83               1.12    1.12     1.07    1.07     1.08    1.12
//	dropdup          2.37               1.00    1.00     1.00    1.00     1.00    1.05
//	transpose_isna   2.32               2.22    1.16     1.16    1.16     1.16    1.22
//	isna_transpose   —                  3.00    1.34     1.34    1.34     1.34    1.41
//
// At first, groupby_hi reads MODIN 4.76 MB over eager 2.97 MB, join 8.65
// over 8.04, dropdup 2.89 over 2.88.
//
// transpose_isna is T then IsNA over the fact frame's first 10,000 rows,
// whose mixed storage takes the boxed transpose; isna_transpose is
// shuffle_wide's transpose_map in the order the optimizer gives it
// (TransposePullUp), IsNA then T, whose Bool bands take the typed one.
// MODIN's extra bytes there are column lists, not cells: the padding
// band's and the gather's lists over the 10,000 output columns. The join
// keeps a flat copy of its right side's key column for the table's probes.
func allocRatioCases() []allocRatioCase {
	join := shuffledJoinPlan()
	fact := join.Left.(*algebra.Source)
	prefix := &algebra.Source{DF: fact.DF.SliceRows(0, 10_000).Compact(), Name: "prefix"}
	return []allocRatioCase{
		{"groupby_hi", &algebra.GroupBy{Input: fact, Spec: expr.GroupBySpec{
			Keys: []string{"key"}, Aggs: []expr.AggSpec{{Col: "amount", Agg: expr.AggSum}},
		}}, 1.68},
		{"sort", &algebra.Sort{Input: fact, Order: expr.SortOrder{{Col: "amount"}}}, 1.35},
		{"join", join, 1.12},
		{"dropdup", &algebra.DropDuplicates{Input: fact, Subset: []string{"key"}}, 1.05},
		{"transpose_isna", &algebra.Map{Input: &algebra.Transpose{Input: prefix}, Fn: algebra.IsNullFn()}, 1.22},
		{"isna_transpose", &algebra.Transpose{Input: &algebra.Map{Input: prefix, Fn: algebra.IsNullFn()}}, 1.41},
	}
}

// allocBytes returns the fewest bytes one Execute of plan on e allocated
// over three runs after a warm-up run, read from MemStats.TotalAlloc.
func allocBytes(t *testing.T, e algebra.Engine, plan algebra.Node) uint64 {
	t.Helper()
	var least uint64
	for run := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Execute(plan); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; run == 1 || run > 1 && b < least {
			least = b
		}
	}
	return least
}

// TestAllocRatioCeilings pins MODIN's allocation per statement against
// eager's on the same plan: MODIN on a one-worker pool at two bands, so
// the ratio counts the partitioned engine's own copies (routing, merges,
// gathers) and not parallel scratch. It does not run in parallel: TotalAlloc
// counts every goroutine's allocations.
func TestAllocRatioCeilings(t *testing.T) {
	one := exec.NewPool(1)
	defer one.Close()
	modinEng, eagerEng := New(WithPool(one), WithBands(2)), eager.New()
	for _, c := range allocRatioCases() {
		m, e := allocBytes(t, modinEng, c.plan), allocBytes(t, eagerEng, c.plan)
		ratio := float64(m) / float64(e)
		t.Logf("%-15s modin %6.2f MB  eager %6.2f MB  ratio %.2f  ceiling %.2f", c.name, float64(m)/1e6, float64(e)/1e6, ratio, c.ceiling)
		if ratio > c.ceiling {
			t.Errorf("%s: MODIN allocates %.2f× eager's bytes, above the %.2f ceiling", c.name, ratio, c.ceiling)
		}
	}
}
