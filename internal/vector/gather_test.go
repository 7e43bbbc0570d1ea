package vector

import (
	"math/rand"
	"testing"
)

// BenchmarkGather times the copy paths at the engine's shapes: a random
// flat take, a chunk's take across four pieces with and without nulls,
// a sort merge's take over seven bucket views, a concat of four bands, a
// clone, and a take of positional labels (a sequence). It uses only
// exported API.
func BenchmarkGather(b *testing.B) {
	const n = 80_000
	r := rand.New(rand.NewSource(1))
	ints := func(rows int, nulls bool) Vector {
		data := make([]int64, rows)
		var mask []bool
		if nulls {
			mask = make([]bool, rows)
		}
		for i := range data {
			data[i] = r.Int63()
			if nulls && r.Intn(10) == 0 {
				mask[i] = true
			}
		}
		return NewInt(data, mask)
	}
	idx := r.Perm(n)
	bands := func(nulls bool) []Vector {
		vs := make([]Vector, 4)
		for p := range vs {
			vs[p] = ints(n/4, nulls)
		}
		return vs
	}
	// Seven runs of a 75,000-row sort bucket, each a view over its own
	// band, interleaved as a merge orders them.
	const sorted, nRuns = 75_000, 7
	runs, lens := make([]Vector, nRuns), make([]int, nRuns)
	var order []int32
	for k := range runs {
		lens[k] = sorted / nRuns
		if k < sorted%nRuns {
			lens[k]++
		}
		runs[k] = TakeView(ints(2*lens[k], false), r.Perm(2 * lens[k])[:lens[k]])
		for range lens[k] {
			order = append(order, int32(k))
		}
	}
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	at, next := make([]RunRow, len(order)), make([]int32, nRuns)
	for p, k := range order {
		at[p] = RunRow{Run: k, Row: next[k]}
		next[k]++
	}
	flat, four, fourNulls, labels := ints(n, false), Stack(bands(false)...), Stack(bands(true)...), Range(0, n)
	cases := []struct {
		name string
		fn   func() Vector
	}{
		{"take/flat", func() Vector { return flat.Take(idx) }},
		{"take/chunk", func() Vector { return four.Take(idx) }},
		{"take/chunk-nulls", func() Vector { return fourNulls.Take(idx) }},
		{"takeruns/views", func() Vector { return TakeRuns(runs, at) }},
		{"concat/bands", func() Vector { return Concat(Pieces(four)...) }},
		{"clone/flat", func() Vector { return Clone(flat) }},
		{"take/seq", func() Vector { return labels.Take(idx) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.fn()
			}
		})
	}
}
