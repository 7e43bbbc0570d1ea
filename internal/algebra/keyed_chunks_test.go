package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// chunkedKeyFrames builds a left and a right input of the keyed kernels
// over more than two hash chunks (groupChunk rows each): an Int key "i"
// with nulls, a Dict key "d" whose category table is longer than a chunk,
// an Object key "o", and a Float payload "v". When collected is set every
// column is a chunk of three bands, as a collected result's are, the Dict
// bands each on its own category table.
func chunkedKeyFrames(r *rand.Rand, rows int, collected bool) (left, right *core.DataFrame) {
	table := make([]string, groupChunk+500)
	for c := range table {
		table[c] = fmt.Sprint("cat", c)
	}
	build := func(n int) *core.DataFrame {
		cuts := []int{0, n / 3, 2 * n / 3, n}
		if !collected {
			cuts = []int{0, n}
		}
		var is, ds, os, vs []vector.Vector
		for b := 1; b < len(cuts); b++ {
			m := cuts[b] - cuts[b-1]
			ints, inulls := make([]int64, m), make([]bool, m)
			codes, strs, vals := make([]int32, m), make([]string, m), make([]float64, m)
			tab := table
			if collected {
				// Each band's own table: the same labels in another order.
				tab = append([]string(nil), table...)
				r.Shuffle(len(tab), func(x, y int) { tab[x], tab[y] = tab[y], tab[x] })
			}
			for k := range m {
				ints[k], inulls[k] = int64(r.Intn(rows/3)), r.Intn(40) == 0
				codes[k] = int32(r.Intn(len(tab)))
				strs[k] = fmt.Sprint("o", r.Intn(7))
				vals[k] = float64(r.Intn(1000)) / 8
			}
			is = append(is, vector.NewInt(ints, inulls))
			ds = append(ds, vector.NewDict(codes, tab, nil))
			os = append(os, vector.NewObject(strs, nil))
			vs = append(vs, vector.NewFloat(vals, nil))
		}
		cols := []vector.Vector{vector.Stack(is...), vector.Stack(ds...), vector.Stack(os...), vector.Stack(vs...)}
		df, err := core.Build(cols, nil, []types.Value{types.String("i"), types.String("d"), types.String("o"), types.String("v")},
			[]types.Domain{types.Int, types.Category, types.Object, types.Float}, nil)
		if err != nil {
			panic(err)
		}
		return df
	}
	return build(rows), build(rows / 2)
}

// sameCells reports how got differs from want cell for cell: frameDiff's
// values and domains, and besides each column's declared domain, its
// storage type and every float cell's bits.
func sameCells(want, got *core.DataFrame) string {
	if d := frameDiff(want, got); d != "" {
		return d
	}
	for j := range want.NCols() {
		if w, g := want.DeclaredDomain(j), got.DeclaredDomain(j); w != g {
			return fmt.Sprintf("column %d declares %v, want %v", j, g, w)
		}
		wc, gc := want.TypedCol(j), got.TypedCol(j)
		if w, g := fmt.Sprintf("%T", vector.Pieces(wc)[0]), fmt.Sprintf("%T", vector.Pieces(gc)[0]); w != g {
			return fmt.Sprintf("column %d stored as %s, want %s", j, g, w)
		}
		for i := range wc.Len() {
			if w, g := floatBits(wc, i), floatBits(gc, i); w != g {
				return fmt.Sprintf("cell (%d, %d) holds float bits %#x, want %#x", i, j, g, w)
			}
		}
	}
	return ""
}

// floatBits returns the stored bits of row i of a Float column, 0 for a
// null row or a column of another kind.
func floatBits(v vector.Vector, i int) uint64 {
	data, nulls, idx, ok := vector.FloatData(v)
	if !ok {
		return 0
	}
	if idx != nil {
		if i = idx[i]; i < 0 {
			return 0
		}
	}
	if nulls != nil && nulls[i] {
		return 0
	}
	return math.Float64bits(data[i])
}

// TestKeyedKernelsPastOneChunkUnderCollisions runs GROUPBY, DROP-DUPLICATES,
// DIFFERENCE and the join's build and probe over 2,600 rows — three hash
// chunks — on an Int key, a Dict key whose table is longer than a chunk,
// a composite key and the whole row, flat and as chunked collected inputs,
// and requires each, with row hashes narrowed to one and to two bits, to
// be cell-identical to its full-width run.
func TestKeyedKernelsPastOneChunkUnderCollisions(t *testing.T) {
	const rows = 2_600
	keys := map[string][]string{"int": {"i"}, "dict": {"d"}, "composite": {"o", "i", "d"}}
	for _, collected := range []bool{false, true} {
		left, right := chunkedKeyFrames(rand.New(rand.NewSource(7)), rows, collected)
		kernels := func() map[string]*core.DataFrame {
			out := map[string]*core.DataFrame{}
			add := func(name string, df *core.DataFrame, err error) {
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				out[name] = df
			}
			for name, on := range keys {
				df, err := GroupByFrame(left, expr.GroupBySpec{Keys: on, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Col: "v", Agg: expr.AggCount, As: "n"}}})
				add("groupby "+name, df, err)
				df, err = DropDuplicatesFrame(left, on)
				add("dropdup "+name, df, err)
				for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
					df, err = JoinFrames(left, right.SelectCols([]int{0, 1, 2}), kind, on, false)
					add(fmt.Sprintf("%v join %s", kind, name), df, err)
				}
			}
			df, err := DropDuplicatesFrame(left, nil)
			add("dropdup whole rows", df, err)
			df, err = DifferenceFrames(left, right)
			add("difference", df, err)
			df, err = DifferenceFrames(left, left.SliceRows(rows/4, rows))
			add("difference of a suffix", df, err)
			return out
		}
		want := kernels()
		if want["groupby dict"].NRows() <= groupChunk || want["difference of a suffix"].NRows() == 0 {
			t.Fatalf("collected %v: %d dict groups, %d rows left by the difference: the inputs do not reach past a chunk",
				collected, want["groupby dict"].NRows(), want["difference of a suffix"].NRows())
		}
		for _, mask := range []uint64{0x1, 0x3} {
			restore := SetRowHashMaskForTesting(mask)
			got := kernels()
			restore()
			for name, w := range want {
				if d := sameCells(w, got[name]); d != "" {
					t.Errorf("collected %v, mask %#x, %s: %s", collected, mask, name, d)
				}
			}
		}
	}
}

// allocatedBy returns the fewest bytes one call of fn allocated over three
// runs after a warm-up run, and the result of the last run.
func allocatedBy[T any](fn func() T) (uint64, T) {
	var least uint64
	var out T
	for run := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out = fn()
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; run == 1 || run > 1 && b < least {
			least = b
		}
	}
	return least, out
}

// TestKeyedKernelsAllocatePerKey runs a 10-key GROUPBY SUM, a DROPDUP and a
// join probe over 200,000 rows and requires each to allocate, beyond its
// output, less than a bound that does not grow with the rows: the row
// hashes are made a chunk at a time into one buffer, and the per-key state
// grows with the keys. A whole-frame hash array alone is 1.6 MB here.
func TestKeyedKernelsAllocatePerKey(t *testing.T) {
	const rows, keys, bound = 200_000, 10, 64 << 10
	key, val := make([]int64, rows), make([]float64, rows)
	for i := range key {
		key[i], val[i] = int64(i*7%keys), float64(i%13)
	}
	df := core.MustNew([]string{"k", "v"}, []vector.Vector{vector.NewInt(key, nil), vector.NewFloat(val, nil)})
	df.TypedCol(0)
	df.TypedCol(1)
	groupby, _ := allocatedBy(func() error {
		_, err := GroupByFrame(df, expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}}})
		return err
	})
	dropdup, _ := allocatedBy(func() error {
		_, err := DropDuplicatesFrame(df, []string{"k"})
		return err
	})
	dim := core.MustNew([]string{"k"}, []vector.Vector{vector.Range(0, keys)})
	table := BuildJoinTable(dim, []string{"k"}, false)
	probeKeys := []vector.Vector{df.TypedCol(0)}
	probe, pairs := allocatedBy(func() [2][]int {
		l, r := table.probe(rows, probeKeys, expr.JoinInner)
		return [2][]int{l, r}
	})
	// The probe's output is its two index lists, one pair per row.
	probe -= uint64(8 * (cap(pairs[0]) + cap(pairs[1])))
	for name, b := range map[string]uint64{"groupby": groupby, "dropdup": dropdup, "join probe": probe} {
		t.Logf("%-10s %6d bytes beyond the output", name, b)
		if b > bound {
			t.Errorf("%s over %d rows of %d keys allocates %d bytes beyond its output, over the %d-byte bound", name, rows, keys, b, bound)
		}
	}
	if len(pairs[0]) != rows {
		t.Fatalf("the probe matched %d of %d rows", len(pairs[0]), rows)
	}
}
