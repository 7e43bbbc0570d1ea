package algebra

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
	"repro/internal/vector"
)

// transposeKinds are the storage kinds the typed transpose covers.
var transposeKinds = []types.Domain{types.Int, types.Float, types.Bool, types.Datetime, types.Object}

// fuzzTransposeColumn draws one column of m rows stored as kind: a null
// mask when masked, Float NaN, -0 and ±Inf among the values, read through a
// filter view when viewed (selecting from a longer base, -1 reading null),
// and stacked from pieces by vector.Stack when chunked.
func fuzzTransposeColumn(rng *rand.Rand, kind types.Domain, m int, masked, viewed, chunked bool) vector.Vector {
	build := func(n int) vector.Vector {
		var mask []bool
		if masked {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = rng.IntN(4) == 0
			}
		}
		switch kind {
		case types.Int:
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int64N(201) - 100
			}
			return vector.NewInt(xs, mask)
		case types.Float:
			specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
			xs := make([]float64, n)
			for i := range xs {
				if xs[i] = float64(rng.IntN(81)-40) / 8; rng.IntN(5) == 0 {
					xs[i] = specials[rng.IntN(len(specials))]
				}
			}
			return vector.NewFloat(xs, mask)
		case types.Bool:
			xs := make([]bool, n)
			for i := range xs {
				xs[i] = rng.IntN(2) == 1
			}
			return vector.NewBool(xs, mask)
		case types.Datetime:
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int64N(1_000_000) * 1_000_000_007
			}
			return vector.NewDatetime(xs, mask)
		}
		xs := make([]string, n)
		for i := range xs {
			xs[i] = []string{"a", "b", "NA", "", "-0", "1.5", "x y"}[rng.IntN(7)]
		}
		return vector.NewObject(xs, mask)
	}
	piece := func(n int) vector.Vector {
		if !viewed {
			return build(n)
		}
		base := build(n + 3)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.IntN(n+4) - 1
		}
		return vector.TakeView(base, idx)
	}
	if !chunked || m < 2 {
		return piece(m)
	}
	cut := 1 + rng.IntN(m-1)
	return vector.Stack(piece(cut), piece(m-cut))
}

// fuzzTransposeFrame draws an m×n frame of one storage kind, each column
// declaring its storage domain (Object leaves it unspecified), with
// positional or string row labels.
func fuzzTransposeFrame(rng *rand.Rand, kind types.Domain, m, n int, masked, viewed, chunked bool) *core.DataFrame {
	cols := make([]vector.Vector, n)
	labels := make([]types.Value, n)
	doms := make([]types.Domain, n)
	for j := range cols {
		cols[j] = fuzzTransposeColumn(rng, kind, m, masked && j%2 == 0, viewed, chunked)
		labels[j] = types.String(fmt.Sprintf("c%d", j))
		if kind != types.Object {
			doms[j] = kind
		}
	}
	rowLab := vector.Range(0, m)
	if rng.IntN(2) == 0 {
		names := make([]string, m)
		for i := range names {
			names[i] = fmt.Sprintf("r%d", i)
		}
		rowLab = vector.NewObject(names, nil)
	}
	return core.MustBuild(cols, rowLab, labels, doms, nil)
}

// transposeDiff is frameDiff plus the declared domains and every Float
// cell's bits, so -0 and 0 differ; "" means identical.
func transposeDiff(want, got *core.DataFrame) string {
	// Declared domains first: reading a cell declares its column's domain.
	if w, g := want.Domains(), got.Domains(); !slices.Equal(w, g) {
		return fmt.Sprintf("declared domains %v, want %v", g, w)
	}
	if d := frameDiff(want, got); d != "" {
		return d
	}
	for j := range want.NCols() {
		for i := range want.NRows() {
			w, g := want.Value(i, j), got.Value(i, j)
			if w.Domain() == types.Float && !w.IsNull() && math.Float64bits(w.Float()) != math.Float64bits(g.Float()) {
				return fmt.Sprintf("cell (%d, %d) = %v, want %v (bits differ)", i, j, g, w)
			}
		}
	}
	return ""
}

// transposeOn runs one path of TransposeBands over the whole frame as one
// band, with the storage the frame's columns join to, returning its output
// and whether the path ran (the typed path declines a frame that does not
// qualify).
func transposeOn(path func(*core.DataFrame, []types.Domain, types.Domain, transposed) bool, df *core.DataFrame, declared []types.Domain) (*core.DataFrame, bool) {
	m := df.NRows()
	out := transposed{cols: make([]vector.Vector, m), colLab: make([]types.Value, m), doms: make([]types.Domain, m)}
	if !path(df, declared, transposeStorage([]*core.DataFrame{df}), out) {
		return nil, false
	}
	return core.MustBuild(out.cols, buildColumn(df.ColLabels()), out.colLab, out.doms, nil), true
}

// FuzzTransposeMatchesBoxed: on frames of every storage kind the typed
// transpose covers — null masks on some columns, Float NaN and -0, filter
// views, chunks built by vector.Stack — with no declared schema, one equal
// to the storage domain, or one naming other domains, the typed path runs
// exactly when the frame qualifies and then equals the boxed path cell for
// cell, bit for bit and in its declared domains; TransposeFrame equals the
// boxed path; the frame cut into two row bands transposes to the same
// frame; and a double transpose recovers the frame and its declared
// domains.
func FuzzTransposeMatchesBoxed(f *testing.F) {
	f.Add([]byte{0, 5, 3, 0, 1})
	f.Add([]byte{1, 7, 2, 0x01, 2})
	f.Add([]byte{1, 70, 3, 0x07, 3})
	f.Add([]byte{2, 4, 4, 0x0a, 4})
	f.Add([]byte{3, 66, 2, 0x14, 5})
	f.Add([]byte{4, 9, 3, 0x0f, 6})
	f.Add([]byte{0, 0, 3, 0x00, 7})
	f.Add([]byte{2, 3, 0, 0x00, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		kind := transposeKinds[int(data[0])%len(transposeKinds)]
		m, n, flags := int(data[1])%80, int(data[2])%6, data[3]
		var seed uint64
		for _, b := range data[4:] {
			seed = seed*131 + uint64(b)
		}
		rng := rand.New(rand.NewPCG(seed, uint64(len(data))))
		df := fuzzTransposeFrame(rng, kind, m, n, flags&1 != 0, flags&2 != 0, flags&4 != 0)

		var declared []types.Domain
		switch (flags >> 3) % 3 {
		case 1:
			declared = slices.Repeat([]types.Domain{kind}, m)
		case 2:
			others := []types.Domain{types.Int, types.Float, types.Bool, types.Datetime, types.Object, types.Category, kind}
			declared = make([]types.Domain, m)
			for i := range declared {
				declared[i] = others[rng.IntN(len(others))]
			}
		}
		boxed := func(df *core.DataFrame, declared []types.Domain, storage types.Domain, out transposed) bool {
			transposeBoxed(df, declared, storage, out)
			return true
		}
		// A fresh oracle per comparison: reading a cell declares its column.
		want := func() *core.DataFrame {
			out, _ := transposeOn(boxed, df, declared)
			return out
		}
		typed, ok := transposeOn(transposeTyped, df, declared)
		if qualifies := n > 0 && !slices.ContainsFunc(declared, func(d types.Domain) bool { return d != kind }); ok != qualifies {
			t.Fatalf("%v %dx%d declared %v: typed path ran %v, want %v", kind, m, n, declared, ok, qualifies)
		}
		if ok {
			if d := transposeDiff(want(), typed); d != "" {
				t.Fatalf("%v %dx%d declared %v: typed transpose %s", kind, m, n, declared, d)
			}
		}
		got, err := TransposeFrame(df, declared)
		if err != nil {
			t.Fatal(err)
		}
		if d := transposeDiff(want(), got); d != "" {
			t.Fatalf("%v %dx%d declared %v: TransposeFrame %s", kind, m, n, declared, d)
		}

		// Two row bands transpose to the same frame.
		cut := 0
		if m > 0 {
			cut = rng.IntN(m + 1)
		}
		banded, err := TransposeBands([]*core.DataFrame{df.SliceRows(0, cut), df.SliceRows(cut, m)}, declared, serially)
		if err != nil {
			t.Fatal(err)
		}
		if d := transposeDiff(want(), banded); d != "" {
			t.Fatalf("%v %dx%d cut at row %d: %s", kind, m, n, cut, d)
		}

		// A double transpose recovers Dn (a frame with no rows or no columns
		// keeps no storage domain to recover it from).
		once, err := TransposeFrame(df, nil)
		if err != nil {
			t.Fatal(err)
		}
		twice, err := TransposeFrame(once, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m > 0 && n > 0 {
			if d := transposeDiff(df, twice); d != "" {
				t.Fatalf("%v %dx%d: double transpose %s", kind, m, n, d)
			}
		}
	})
}
