package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// sortOracleCols are the key columns of sortOracleFrame: Int with the int64
// extremes, Float with NaN, -0, infinities and subnormals, Datetime, Bool, a
// Dict whose table is unsorted and repeats a label, Object strings (no word
// form) and a boxed column of Ints and Floats.
var sortOracleCols = []string{"i", "f", "t", "b", "d", "s", "x"}

// sortOracleFrame draws an n-row frame over sortOracleCols, every column with
// masked nulls, and row labels of a drawn kind (Int with nulls, Float, Dict
// or Object). With views set every column is a TakeView of a longer one that
// reads some rows as -1; otherwise every column is a slice of one.
func sortOracleFrame(r *rand.Rand, n int, views bool) *core.DataFrame {
	base := n + 3
	nulls := func() []bool {
		m := make([]bool, base)
		for i := range m {
			m[i] = r.Intn(7) == 0
		}
		return m
	}
	pick := func(vals ...float64) float64 { return vals[r.Intn(len(vals))] }
	ints, floats, times := make([]int64, base), make([]float64, base), make([]int64, base)
	bools, strs, codes, boxed := make([]bool, base), make([]string, base), make([]int32, base), make([]types.Value, base)
	table := []string{"plum", "fig", "apple", "kiwi", "fig"}
	for i := 0; i < base; i++ {
		ints[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 2}[r.Intn(6)]
		floats[i] = pick(math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1.5, -2)
		times[i] = int64(r.Intn(4)-2) * 1e9
		bools[i] = r.Intn(2) == 0
		strs[i] = table[r.Intn(len(table))]
		codes[i] = int32(r.Intn(len(table)))
		if r.Intn(2) == 0 {
			boxed[i] = types.IntValue(int64(r.Intn(3)))
		} else {
			boxed[i] = types.FloatValue(pick(0.5, 1, math.NaN()))
		}
	}
	cols := []vector.Vector{
		vector.NewInt(ints, nulls()), vector.NewFloat(floats, nulls()), vector.NewDatetime(times, nulls()),
		vector.NewBool(bools, nulls()), vector.NewDict(codes, table, nulls()), vector.NewObject(strs, nulls()),
		vector.NewAny(boxed),
	}
	var rowLab vector.Vector
	switch r.Intn(4) {
	case 0:
		rowLab = vector.NewInt(append([]int64(nil), ints...), nulls())
	case 1:
		rowLab = vector.NewFloat(append([]float64(nil), floats...), nil)
	case 2:
		rowLab = vector.NewDict(append([]int32(nil), codes...), table, nulls())
	case 3:
		rowLab = vector.NewObject(append([]string(nil), strs...), nil)
	}
	cut := func(v vector.Vector) vector.Vector {
		if !views {
			off := r.Intn(base - n + 1)
			return v.Slice(off, off+n)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.Intn(base+1) - 1
		}
		return vector.TakeView(v, idx)
	}
	labels := make([]types.Value, len(cols))
	domains := make([]types.Domain, len(cols))
	for j := range cols {
		cols[j] = cut(cols[j])
		// Declared domains keep the Object column Object: the kernel and the
		// oracle read the very storage built here.
		labels[j], domains[j] = types.String(sortOracleCols[j]), cols[j].Domain()
	}
	df, err := core.Build(cols, cut(rowLab), labels, domains, nil)
	if err != nil {
		panic(err)
	}
	return df
}

// sortOracleOrder draws one to three distinct keys, each ascending or
// descending.
func sortOracleOrder(r *rand.Rand) expr.SortOrder {
	perm := r.Perm(len(sortOracleCols))
	order := make(expr.SortOrder, 1+r.Intn(3))
	for k := range order {
		order[k] = expr.SortKey{Col: sortOracleCols[perm[k]], Desc: r.Intn(2) == 0}
	}
	return order
}

// oracleSort is SORT by definition: a stable sort of row positions whose
// comparator calls vector.CompareRows key by key, negated for descending
// keys — row labels alone when byLabels.
func oracleSort(df *core.DataFrame, order expr.SortOrder, byLabels bool) *core.DataFrame {
	keys, desc := []vector.Vector{df.RowLabels()}, []bool{false}
	if !byLabels {
		keys, desc = nil, nil
		for _, o := range order {
			keys, desc = append(keys, df.TypedCol(df.ColIndex(o.Col))), append(desc, o.Desc)
		}
	}
	idx := make([]int, df.NRows())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, v := range keys {
			c := vector.CompareRows(v, idx[a], v, idx[b])
			if desc[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return df.TakeRows(idx)
}

// checkSortAgainstOracle requires SortFrame by the order and by row labels,
// and TopKFrame's prefixes and suffixes of several lengths, to equal the
// oracle cell for cell, row labels included.
func checkSortAgainstOracle(t *testing.T, df *core.DataFrame, order expr.SortOrder) {
	t.Helper()
	want := oracleSort(df, order, false)
	got, err := SortFrame(df, order, false)
	if err != nil {
		t.Fatalf("SortFrame(%v): %v", order, err)
	}
	if d := frameDiff(want, got); d != "" {
		t.Fatalf("SortFrame(%v): %s\nwant:\n%s\ngot:\n%s", order, d, want, got)
	}
	byLabels, err := SortFrame(df, nil, true)
	if err != nil {
		t.Fatalf("SortFrame by labels: %v", err)
	}
	if d := frameDiff(oracleSort(df, nil, true), byLabels); d != "" {
		t.Fatalf("SortFrame by labels (%v): %s", df.RowLabels().Domain(), d)
	}
	n := df.NRows()
	for _, k := range []int{1, 3, n / 2, n, n + 1} {
		for _, lim := range []int{k, -k} {
			got, err := TopKFrame(df, order, lim)
			if err != nil {
				t.Fatalf("TopKFrame(%v, %d): %v", order, lim, err)
			}
			if d := frameDiff(LimitFrame(want, lim), got); d != "" {
				t.Fatalf("TopKFrame(%v, %d): %s", order, lim, d)
			}
		}
	}
}

// TestSortMatchesOracle runs the SORT and TOPK kernels against the oracle
// over every key kind, alone and as mixed ascending and descending tuples,
// on sliced and viewed columns and on empty, one-row and larger frames.
func TestSortMatchesOracle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 40, 300} {
		for _, views := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(28 + n)))
			df := sortOracleFrame(r, n, views)
			var orders []expr.SortOrder
			for _, c := range sortOracleCols {
				orders = append(orders, expr.SortOrder{{Col: c}}, expr.SortOrder{{Col: c, Desc: true}})
			}
			for range 8 {
				orders = append(orders, sortOracleOrder(r))
			}
			for _, order := range orders {
				t.Run(fmt.Sprintf("n=%d/views=%v/%v", n, views, order), func(t *testing.T) {
					checkSortAgainstOracle(t, df, order)
				})
			}
		}
	}
}

// FuzzSortMatchesOracle is TestSortMatchesOracle over drawn frames, sizes,
// view shapes and key orders.
func FuzzSortMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint8(0), false)
	f.Add(int64(2), uint8(1), true)
	f.Add(int64(3), uint8(60), false)
	f.Add(int64(4), uint8(200), true)
	f.Add(int64(5), uint8(255), false)
	f.Fuzz(func(t *testing.T, seed int64, rows uint8, views bool) {
		r := rand.New(rand.NewSource(seed))
		checkSortAgainstOracle(t, sortOracleFrame(r, int(rows), views), sortOracleOrder(r))
	})
}
