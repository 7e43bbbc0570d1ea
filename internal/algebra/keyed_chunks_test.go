package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// chunkedKeyFrames builds a left and a right input of the keyed kernels
// over more than two hash chunks (groupChunk rows each): an Int key "i"
// with nulls, a Dict key "d" with nulls whose category table is longer than
// a chunk, an Object key "o", a Float payload "v" and "od", an Object copy
// of "d". When collected is set every column is a chunk of three bands, as
// a collected result's are, the Dict bands each on its own category table.
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
		var is, ds, os, vs, ods []vector.Vector
		for b := 1; b < len(cuts); b++ {
			m := cuts[b] - cuts[b-1]
			ints, inulls := make([]int64, m), make([]bool, m)
			codes, dnulls, strs, vals := make([]int32, m), make([]bool, m), make([]string, m), make([]float64, m)
			tab := table
			if collected {
				// Each band's own table: the same labels in another order.
				tab = append([]string(nil), table...)
				r.Shuffle(len(tab), func(x, y int) { tab[x], tab[y] = tab[y], tab[x] })
			}
			for k := range m {
				ints[k], inulls[k] = int64(r.Intn(rows/3)), r.Intn(40) == 0
				codes[k], dnulls[k] = int32(r.Intn(len(tab))), r.Intn(30) == 0
				strs[k] = fmt.Sprint("o", r.Intn(7))
				vals[k] = float64(r.Intn(1000)) / 8
			}
			is = append(is, vector.NewInt(ints, inulls))
			ds = append(ds, vector.NewDict(codes, tab, dnulls))
			ods = append(ods, objectCopy(ds[len(ds)-1]))
			os = append(os, vector.NewObject(strs, nil))
			vs = append(vs, vector.NewFloat(vals, nil))
		}
		cols := []vector.Vector{vector.Stack(is...), vector.Stack(ds...), vector.Stack(os...), vector.Stack(vs...), vector.Stack(ods...)}
		df, err := core.Build(cols, nil, []types.Value{types.String("i"), types.String("d"), types.String("o"), types.String("v"), types.String("od")},
			[]types.Domain{types.Int, types.Category, types.Object, types.Float, types.Object}, nil)
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
// its Object copy, a composite key and the whole row, flat and as chunked
// collected inputs, and requires each, with row hashes narrowed to one and
// to two bits, to be cell-identical to its full-width run. At full width
// and at both masks, every keyed kernel and HashRoute must also keep or
// pair the same rows keyed on the Dict column as on its Object copy
// (dictKeyRowsAgree), also on a Dict left side against an Object right
// side and on views that read some rows as -1.
func TestKeyedKernelsPastOneChunkUnderCollisions(t *testing.T) {
	const rows = 2_600
	keys := map[string][]string{"int": {"i"}, "dict": {"d"}, "object copy": {"od"}, "composite": {"o", "i", "d"}}
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
					df, err = JoinFrames(left, right.SelectCols([]int{0, 1, 2, 4}), kind, on, false)
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

		col := func(df *core.DataFrame, name string) vector.Vector { return df.TypedCol(df.ColIndex(name)) }
		view := func(v vector.Vector, skip int) vector.Vector { // every skip-th row reads -1, the rest reversed
			idx := make([]int, v.Len())
			for i := range idx {
				if idx[i] = v.Len() - 1 - i; i%skip == 0 {
					idx[i] = -1
				}
			}
			return vector.TakeView(v, idx)
		}
		for _, mask := range []uint64{^uint64(0), 0x1, 0x3} {
			// A narrowed hash makes every probe walk about half the keys:
			// there the inputs are cut to 1,200 rows, still past a chunk.
			lrows, rrows := left.NRows(), right.NRows()
			if mask != ^uint64(0) {
				lrows, rrows = 1_200, 1_200
			}
			l, r := left.SliceRows(0, lrows), right.SliceRows(0, rrows)
			ld, lo, lv, rd, ro := col(l, "d"), col(l, "od"), col(l, "v"), col(r, "d"), col(r, "od")
			restore := SetRowHashMaskForTesting(mask)
			at := fmt.Sprintf("collected %v, mask %#x", collected, mask)
			dictKeyRowsAgree(t, at, ld, lo, rd, ro, lv)
			dictKeyRowsAgree(t, at+", views", view(ld, 9), view(lo, 9), view(rd, 7), view(ro, 7), view(lv, 9))
			restore()
		}
	}
}

// dictKeyRowsAgree requires GROUPBY, DROP-DUPLICATES, DIFFERENCE, the
// join's inner and left probes and HashRoute to keep or pair the same rows
// keyed on Dict key columns (ld left, rd right) as on their Object copies
// (lo, ro), and on a Dict left side against an Object right side; lv is
// the left payload.
func dictKeyRowsAgree(t *testing.T, at string, ld, lo, rd, ro, lv vector.Vector) {
	t.Helper()
	frame := func(cols ...vector.Vector) *core.DataFrame {
		labels, domains := []types.Value{types.String("k"), types.String("v")}[:len(cols)], make([]types.Domain, len(cols))
		for j, c := range cols {
			domains[j] = c.Domain()
		}
		return core.MustBuild(cols, nil, labels, domains, nil)
	}
	agree := func(name string, obj, dict any, err ...error) {
		t.Helper()
		for _, e := range err {
			if e != nil {
				t.Fatalf("%s, %s: %v", at, name, e)
			}
		}
		if !reflect.DeepEqual(obj, dict) {
			t.Errorf("%s, %s: the Dict key's rows differ from its Object copy's", at, name)
		}
	}
	// cells renders a frame's cells (nulls apart from every string) and row
	// labels, which name the input rows a result kept.
	cells := func(df *core.DataFrame) [][]string {
		out := make([][]string, df.NRows())
		for i := range out {
			out[i] = []string{df.RowLabels().Value(i).String()}
			for j := range df.NCols() {
				if v := df.Value(i, j); v.IsNull() {
					out[i] = append(out[i], "\x00null")
				} else {
					out[i] = append(out[i], v.String())
				}
			}
		}
		return out
	}
	n := ld.Len()
	spec := expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Agg: expr.AggSize, As: "n"}}}
	gd, errD := GroupByFrame(frame(ld, lv), spec)
	gobj, errO := GroupByFrame(frame(lo, lv), spec)
	agree("groupby", cells(gobj), cells(gd), errD, errO)
	dd, errD := DropDuplicatesFrame(frame(ld, lv), []string{"k"})
	dobj, errO := DropDuplicatesFrame(frame(lo, lv), []string{"k"})
	agree("dropdup", cells(dobj), cells(dd), errD, errO)
	for _, c := range []struct {
		name           string
		dl, dr, ol, or vector.Vector
	}{
		{"difference", ld, rd, lo, ro},
		{"difference of an Object right side", ld, ro, lo, ro},
		{"difference of a suffix", ld, ld.Slice(n/4, n), lo, lo.Slice(n/4, n)},
	} {
		xd, errD := DifferenceFrames(frame(c.dl), frame(c.dr))
		xo, errO := DifferenceFrames(frame(c.ol), frame(c.or))
		agree(c.name, cells(xo), cells(xd), errD, errO)
	}
	tableD, tableO := BuildJoinTable(frame(rd), []string{"k"}, false), BuildJoinTable(frame(ro), []string{"k"}, false)
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		ol, or := tableO.probe(n, []vector.Vector{lo}, kind)
		dl, dr := tableD.probe(n, []vector.Vector{ld}, kind)
		agree(fmt.Sprintf("%v join", kind), [2][]int{ol, or}, [2][]int{dl, dr})
		dl, dr = tableO.probe(n, []vector.Vector{ld}, kind)
		agree(fmt.Sprintf("%v join of an Object right side", kind), [2][]int{ol, or}, [2][]int{dl, dr})
	}
	agree("route", HashRoute([]vector.Vector{lo}, n, 7), HashRoute([]vector.Vector{ld}, n, 7))
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

// TestKeyedKernelsAllocatePerKey runs a 10-key GROUPBY SUM, a DROPDUP, a
// DIFFERENCE of the frame from itself and a join probe on an Int and on a
// Dict key over 200,000 rows and requires each to allocate, beyond its
// output, less than a bound that does not grow with the rows: the row
// hashes are made a chunk at a time into one buffer, and the per-key state
// grows with the keys. A whole-frame hash array alone is 1.6 MB here.
func TestKeyedKernelsAllocatePerKey(t *testing.T) {
	const rows, keys, bound = 200_000, 10, 64 << 10
	key, val, codes := make([]int64, rows), make([]float64, rows), make([]int32, rows)
	for i := range key {
		key[i], val[i], codes[i] = int64(i*7%keys), float64(i%13), int32(i*7%keys)
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
	difference, _ := allocatedBy(func() error {
		out, err := DifferenceFrames(df, df)
		if err == nil && out.NRows() != 0 {
			t.Fatalf("the difference of a frame from itself kept %d rows", out.NRows())
		}
		return err
	})
	// probe returns what the join probe of keys against a 10-key table over
	// dimKey allocates beyond its output, its two index lists.
	probe := func(dimKey, key vector.Vector) uint64 {
		dim := core.MustBuild([]vector.Vector{dimKey}, nil, []types.Value{types.String("k")}, []types.Domain{dimKey.Domain()}, nil)
		table := BuildJoinTable(dim, []string{"k"}, false)
		b, pairs := allocatedBy(func() [2][]int {
			l, r := table.probe(rows, []vector.Vector{key}, expr.JoinInner)
			return [2][]int{l, r}
		})
		if len(pairs[0]) != rows {
			t.Fatalf("the probe matched %d of %d rows", len(pairs[0]), rows)
		}
		return b - uint64(8*(cap(pairs[0])+cap(pairs[1])))
	}
	cats := make([]string, keys)
	for c := range cats {
		cats[c] = fmt.Sprint("cat", c)
	}
	allCodes := make([]int32, keys)
	for c := range allCodes {
		allCodes[c] = int32(keys - 1 - c)
	}
	intProbe := probe(vector.Range(0, keys), df.TypedCol(0))
	dictProbe := probe(vector.NewDict(allCodes, cats, nil), vector.NewDict(codes, cats, nil))
	for name, b := range map[string]uint64{"groupby": groupby, "dropdup": dropdup, "difference": difference,
		"join probe": intProbe, "dict join probe": dictProbe} {
		t.Logf("%-10s %6d bytes beyond the output", name, b)
		if b > bound {
			t.Errorf("%s over %d rows of %d keys allocates %d bytes beyond its output, over the %d-byte bound", name, rows, keys, b, bound)
		}
	}
}
