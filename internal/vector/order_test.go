package vector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// orderKeys draws n rows of the key shapes Order sorts: word widths 1 to 3,
// descending keys, keys whose high bytes are the same on every row (small
// Ints, Bools, Dict ranks, one Datetime day) and a key that is one value
// on every row, so the radix sort skips every one of its digits.
func orderKeys(r *rand.Rand, n int) map[string][]Vector {
	ints, small, same, times := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	floats := make([]float64, n)
	bools, codes := make([]bool, n), make([]int32, n)
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		ints[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}[r.Intn(5)] + int64(r.Intn(3))
		small[i], same[i] = int64(r.Intn(4)), 7
		times[i] = 1_700_000_000_000_000_000 + int64(r.Intn(1000))
		floats[i] = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), 5e-324, -2.5, 1e300}[r.Intn(7)] * float64(1+r.Intn(2))
		bools[i], codes[i] = r.Intn(2) == 0, int32(r.Intn(4))
		nulls[i] = r.Intn(6) == 0
	}
	table := []string{"pear", "apple", "fig", "apple"}
	return map[string][]Vector{
		"w1/float":                {NewFloat(floats, nulls)},
		"w1/small-int":            {NewInt(small, nil)},
		"w1/same":                 {NewInt(same, nil)},
		"w1/datetime":             {NewDatetime(times, nil)},
		"w2/int-nulls":            {NewInt(ints, nulls)},
		"w2/bool,dict":            {NewBool(bools, nulls), NewDict(codes, table, nil)},
		"w3/int-nulls,float":      {NewInt(ints, nulls), NewFloat(floats, nil)},
		"w3/same,small,datetime":  {NewInt(same, nil), NewInt(small, nil), NewDatetime(times, nulls)},
		"w3/dict,bool,float-view": {NewDict(codes, table, nulls), NewBool(bools, nil), TakeView(NewFloat(floats, nil), r.Perm(n))},
	}
}

// TestOrderMatchesStableWordSort holds Order to a stable sort of the rows'
// filled word tuples, ascending and descending, from empty and one-row
// inputs up, and to a stable sort over CompareRows for a key with no word
// form.
func TestOrderMatchesStableWordSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 257, 1000} {
		r := rand.New(rand.NewSource(int64(n)))
		for name, keys := range orderKeys(r, n) {
			for _, down := range []bool{false, true} {
				desc := make([]bool, len(keys))
				for k := range desc {
					desc[k] = down != (k%2 == 1)
				}
				key, ok := NewSortKey(keys, desc)
				if !ok {
					t.Fatalf("%s: no word form", name)
				}
				m := key.Width()
				words := make([]uint64, n*m)
				key.Fill(words)
				want := make([]int, n)
				for i := range want {
					want[i] = i
				}
				slices.SortStableFunc(want, func(a, b int) int { return slices.Compare(words[a*m:a*m+m], words[b*m:b*m+m]) })
				if got := Order(keys, desc, n); !slices.Equal(got, want) {
					t.Errorf("n=%d %s desc=%v: Order differs from the stable word sort", n, name, desc)
				}
			}
		}
		strs := make([]string, n)
		for i := range strs {
			strs[i] = []string{"b", "a", "", "ab"}[r.Intn(4)]
		}
		keys := []Vector{NewObject(strs, nil)}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return -CompareRows(keys[0], a, keys[0], b) })
		if got := Order(keys, []bool{true}, n); !slices.Equal(got, want) {
			t.Errorf("n=%d object desc: Order differs from the stable cell sort", n)
		}
	}
}

// mergeCase is one set of sorted runs, each key given per run.
type mergeCase struct {
	name string
	runs [][]Vector
	desc []bool
}

// mergeCases cuts keys into runs that MergeRuns must merge: runs that are
// views over one band sorted by Order (as the range shuffle routes them),
// runs whose Int key is null in only one run, Dict runs over one table and
// over tables of their own, an Int run beside a Float run, Object runs,
// and views reading -1.
func mergeCases(r *rand.Rand) []mergeCase {
	sortedView := func(v Vector, desc bool) Vector {
		return TakeView(v, Order([]Vector{v}, []bool{desc}, v.Len()))
	}
	ints := func(n int, withNulls bool) *Int {
		data, nulls := make([]int64, n), make([]bool, n)
		for i := range data {
			// The null word of a key without its null-rank word is
			// MinInt64's.
			data[i], nulls[i] = []int64{math.MinInt64, -2, 0, 1, math.MaxInt64}[r.Intn(5)], withNulls && r.Intn(4) == 0
		}
		return NewInt(data, nulls)
	}
	floats := func(n int) *Float {
		data := make([]float64, n)
		for i := range data {
			data[i] = []float64{math.NaN(), -1, 0, 0.5, 2}[r.Intn(5)]
		}
		return NewFloat(data, nil)
	}
	dict := func(n int, table []string) *Dict {
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(r.Intn(len(table)))
		}
		return NewDict(codes, table, nil)
	}
	shared := []string{"kiwi", "fig", "apple"}
	withMinus := func(v Vector) Vector {
		idx := Order([]Vector{v}, []bool{false}, v.Len())
		return TakeView(v, append([]int{-1, -1}, idx...))
	}
	var cases []mergeCase
	for _, desc := range []bool{false, true} {
		d := []bool{desc}
		cases = append(cases,
			mergeCase{"int-views", [][]Vector{{sortedView(ints(40, true), desc)}, {sortedView(ints(1, false), desc)}, {sortedView(ints(90, true), desc)}}, d},
			mergeCase{"int-nulls-in-one-run", [][]Vector{{sortedView(ints(30, false), desc)}, {sortedView(ints(30, true), desc)}, {sortedView(ints(30, false), desc)}}, d},
			mergeCase{"dict-shared-table", [][]Vector{{sortedView(dict(50, shared), desc)}, {sortedView(dict(20, shared), desc)}}, d},
			mergeCase{"dict-own-tables", [][]Vector{{sortedView(dict(50, shared), desc)}, {sortedView(dict(20, []string{"apple", "plum", "fig"}), desc)}}, d},
			mergeCase{"int-beside-float", [][]Vector{{sortedView(ints(25, true), desc)}, {sortedView(floats(25), desc)}, {sortedView(ints(5, false), desc)}}, d},
			mergeCase{"object", [][]Vector{{sortedView(NewObjectFromStrings([]string{"b", "a", "c", "a"}), desc)}, {sortedView(NewObjectFromStrings([]string{"a", "c"}), desc)}}, d},
		)
	}
	cases = append(cases,
		mergeCase{"views-reading-minus-one", [][]Vector{{withMinus(ints(10, false))}, {withMinus(floats(10))}, {withMinus(ints(10, true))}}, []bool{false}},
	)
	// Two keys over four runs of one band each: each run is sorted by both.
	var runs [][]Vector
	for _, n := range []int{17, 0, 33, 8} {
		runs = append(runs, sortedKeys(ints(n, true), dict(n, shared), []bool{true, false}))
	}
	return append(cases, mergeCase{"two-keys-four-runs", runs, []bool{true, false}})
}

// sortedKeys returns two key columns as views in their stable order.
func sortedKeys(a, b Vector, desc []bool) []Vector {
	idx := Order([]Vector{a, b}, desc, a.Len())
	return []Vector{TakeView(a, idx), TakeView(b, idx)}
}

// TestMergeRunsMatchesStableSort holds MergeRuns to a stable sort of every
// run's rows, taken in run order, by CompareRows, and TakeRuns of each key
// to Concat of the runs taken at the merged positions: same cells, same
// domain.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for _, c := range mergeCases(r) {
		t.Run(fmt.Sprintf("%s/desc=%v", c.name, c.desc), func(t *testing.T) {
			lens := make([]int, len(c.runs))
			var want []RunRow
			for run, keys := range c.runs {
				lens[run] = keys[0].Len()
				for i := range lens[run] {
					want = append(want, RunRow{int32(run), int32(i)})
				}
			}
			slices.SortStableFunc(want, func(a, b RunRow) int {
				for k, d := range c.desc {
					x := CompareRows(c.runs[a.Run][k], int(a.Row), c.runs[b.Run][k], int(b.Row))
					if d {
						x = -x
					}
					if x != 0 {
						return x
					}
				}
				return 0
			})
			got := MergeRuns(c.runs, lens, c.desc)
			if !slices.Equal(got, want) {
				t.Fatalf("merge order differs from the stable sort:\n got %v\nwant %v", got, want)
			}
			for k := range c.desc {
				cols := make([]Vector, len(c.runs))
				offsets := make([]int, len(c.runs)+1)
				for run, keys := range c.runs {
					cols[run] = keys[k]
					offsets[run+1] = offsets[run] + lens[run]
				}
				flat := make([]Vector, len(cols))
				for run, v := range cols {
					flat[run] = Materialize(v)
				}
				pos := make([]int, len(got))
				for p, rr := range got {
					pos[p] = offsets[rr.Run] + int(rr.Row)
				}
				want := Concat(flat...).Take(pos)
				taken := TakeRuns(cols, got)
				if taken.Domain() != want.Domain() || taken.Len() != want.Len() {
					t.Fatalf("key %d: TakeRuns gives %d %v cells, Concat %d %v", k, taken.Len(), taken.Domain(), want.Len(), want.Domain())
				}
				for p := 0; p < want.Len(); p++ {
					if w, g := want.Value(p), taken.Value(p); w.IsNull() != g.IsNull() || !w.Equal(g) && !w.IsNull() {
						t.Fatalf("key %d row %d: TakeRuns %#v, Concat %#v", k, p, g, w)
					}
				}
			}
		})
	}
}
