package algebra

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/workload"
)

// benchTaxi is the 50,000-row induced taxi frame the kernel benchmarks run
// over, built once.
var benchTaxi = sync.OnceValue(func() *core.DataFrame {
	return InduceFrame(workload.Taxi(workload.DefaultTaxiOptions(50_000)))
})

// BenchmarkVectorizedFilter contrasts the two SELECTION implementations on
// the same predicate: the boxed path materializes a row view and a
// types.Value per inspected cell; the kernel path compares the column's
// storage slice against the operand directly.
func BenchmarkVectorizedFilter(b *testing.B) {
	taxi := benchTaxi()
	w := expr.WhereEquals("payment_type", types.CategoryValue("card"))
	pred := w.Predicate()
	b.Run("boxed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if SelectRows(taxi, pred).NRows() == 0 {
				b.Fatal("empty selection")
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := SelectWhere(taxi, w)
			if err != nil {
				b.Fatal(err)
			}
			if out.NRows() == 0 {
				b.Fatal("empty selection")
			}
		}
	})
}

// BenchmarkMapIsNull contrasts the two elementwise MAP implementations on
// the Figure 2 map: the boxed path calls Elementwise on a types.Value per
// cell and rebuilds each column through a Builder; the bulk path copies each
// column's null mask.
func BenchmarkMapIsNull(b *testing.B) {
	taxi := benchTaxi()
	for _, c := range []struct {
		name string
		fn   expr.MapFn
	}{{"boxed", boxedTwin(IsNullFn())}, {"bulk", IsNullFn()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := MapFrame(taxi, c.fn)
				if err != nil {
					b.Fatal(err)
				}
				if out.NRows() != taxi.NRows() {
					b.Fatal("row count changed")
				}
			}
		})
	}
}

// BenchmarkHashGroupByKeys contrasts group-key identity computation: the
// boxed path renders every row's key tuple to a string (one rendered string
// and 1-2 allocations per row); the kernel path bulk-hashes the typed key
// columns and keeps one boxed exemplar per distinct group.
func BenchmarkHashGroupByKeys(b *testing.B) {
	taxi := benchTaxi()
	keys := []string{"vendor_id", "passenger_count"}
	cols := make([]vector.Vector, len(keys))
	for k, name := range keys {
		cols[k] = taxi.TypedCol(taxi.ColIndex(name))
	}
	b.Run("boxed-string-keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var sb strings.Builder
			distinct := make(map[string]struct{})
			for r := 0; r < taxi.NRows(); r++ {
				sb.Reset()
				for _, c := range cols {
					sb.WriteString(c.Value(r).Key())
					sb.WriteByte('\x1f')
				}
				distinct[sb.String()] = struct{}{}
			}
			if len(distinct) == 0 {
				b.Fatal("no keys")
			}
		}
	})
	b.Run("hash-kernels", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := SummarizeGroupKeys(taxi, keys)
			if err != nil {
				b.Fatal(err)
			}
			if len(s.Hashes) == 0 {
				b.Fatal("no keys")
			}
		}
	})
}

// BenchmarkGroupByKernels runs GroupPartial over the key shapes the
// workloads group on: a Dict key whose table every row shares, the same rows
// as 8 pieces that each induced their own table (a streamed scan's bands),
// an Int key, and 25,000 distinct Int keys.
func BenchmarkGroupByKernels(b *testing.B) {
	taxi := benchTaxi()
	raw := workload.Taxi(workload.DefaultTaxiOptions(taxi.NRows()))
	var pieces []*core.DataFrame
	for p := 0; p < 8; p++ {
		pieces = append(pieces, InduceFrame(raw.SliceRows(p*raw.NRows()/8, (p+1)*raw.NRows()/8)))
	}
	vendorSum := expr.GroupBySpec{Keys: []string{"vendor_id"}, Aggs: []expr.AggSpec{{Col: "total_amount", Agg: expr.AggSum}}}
	cases := []struct {
		name   string
		frames []*core.DataFrame
		spec   expr.GroupBySpec
	}{
		{"dict-shared-sum", []*core.DataFrame{taxi}, vendorSum},
		{"dict-per-piece-sum", pieces, vendorSum},
		{"int-size", []*core.DataFrame{taxi}, expr.GroupBySpec{Keys: []string{"passenger_count"}, Aggs: []expr.AggSpec{{Agg: expr.AggSize}}}},
		{"25k-keys-sum", []*core.DataFrame{highNDVFrame()}, expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}}}},
	}
	// One frame is GroupByFrame, several are the shuffle merge's fold.
	group := func(frames []*core.DataFrame, spec expr.GroupBySpec) (*core.DataFrame, error) {
		if len(frames) == 1 {
			return GroupByFrame(frames[0], spec)
		}
		g := NewGroupPartial(spec)
		for _, f := range frames {
			if err := g.AddFrame(f); err != nil {
				return nil, err
			}
		}
		return g.Finalize()
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err := group(c.frames, c.spec); err != nil || out.NRows() == 0 {
					b.Fatalf("%v, err %v", out, err)
				}
			}
		})
	}
}

// highNDVFrame is a 75,000-row frame over 25,000 distinct int keys, each
// appearing three times in scattered order, built once.
var highNDVFrame = sync.OnceValue(func() *core.DataFrame {
	const rows, keys = 75_000, 25_000
	k := make([]int64, rows)
	v := make([]float64, rows)
	for i := range k {
		k[i] = int64(i * 7919 % keys)
		v[i] = float64(i)
	}
	return core.MustNew([]string{"k", "v"}, []vector.Vector{vector.NewInt(k, nil), vector.NewFloat(v, nil)})
})

// sortBenchFrame is a 75,000-row frame (shuffle_wide's fact size) with one
// column per key shape the sort benchmarks order by, built once: f Float, i
// Int with a null every ninth row, d Dict over 300 labels in an unsorted
// table, s Object strings.
var sortBenchFrame = sync.OnceValue(func() *core.DataFrame {
	const rows, labels = 75_000, 300
	r := rand.New(rand.NewSource(5))
	f, i, codes, s := make([]float64, rows), make([]int64, rows), make([]int32, rows), make([]string, rows)
	nulls := make([]bool, rows)
	table := make([]string, labels)
	for k := range table {
		table[k] = fmt.Sprintf("label-%03d", r.Intn(1000))
	}
	for k := range f {
		f[k] = r.NormFloat64() * 100
		i[k] = r.Int63n(50_000) - 25_000
		nulls[k] = k%9 == 0
		codes[k] = int32(r.Intn(labels))
		s[k] = fmt.Sprintf("s%06d", r.Intn(rows))
	}
	return core.MustNew([]string{"f", "i", "d", "s"}, []vector.Vector{
		vector.NewFloat(f, nil), vector.NewInt(i, nulls), vector.NewDict(codes, table, nil), vector.NewObject(s, nil),
	})
})

// BenchmarkSortKernels runs SORT over 75,000 rows by a Float key, an Int key
// with nulls, a Dict key then a descending Float key, and an Object key (no
// word form: the cell-comparison path), and TOPK 10 of 1,000 rows by the
// Float key.
func BenchmarkSortKernels(b *testing.B) {
	df := sortBenchFrame()
	small := df.SliceRows(0, 1_000)
	cases := []struct {
		name string
		run  func() (*core.DataFrame, error)
	}{
		{"float", func() (*core.DataFrame, error) { return SortFrame(df, expr.SortOrder{{Col: "f"}}, false) }},
		{"int-nulls", func() (*core.DataFrame, error) { return SortFrame(df, expr.SortOrder{{Col: "i"}}, false) }},
		{"dict-asc-float-desc", func() (*core.DataFrame, error) {
			return SortFrame(df, expr.SortOrder{{Col: "d"}, {Col: "f", Desc: true}}, false)
		}},
		{"object", func() (*core.DataFrame, error) { return SortFrame(df, expr.SortOrder{{Col: "s"}}, false) }},
		{"topk-10-of-1000", func() (*core.DataFrame, error) { return TopKFrame(small, expr.SortOrder{{Col: "f"}}, 10) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if out, err := c.run(); err != nil || out.NRows() == 0 {
					b.Fatalf("%v, err %v", out, err)
				}
			}
		})
	}
}

// BenchmarkHashKernelsHighNDV runs the key-index kernels where the index,
// not the per-row loop, dominates: one new key every third row.
func BenchmarkHashKernelsHighNDV(b *testing.B) {
	df := highNDVFrame()
	spec := expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}}}
	kernels := map[string]func() (int, error){
		"groupby": func() (int, error) {
			out, err := GroupByFrame(df, spec)
			if err != nil {
				return 0, err
			}
			return out.NRows(), nil
		},
		"summarize": func() (int, error) {
			s, err := SummarizeGroupKeys(df, []string{"k"})
			if err != nil {
				return 0, err
			}
			return len(s.Hashes), nil
		},
		"dropdup": func() (int, error) {
			out, err := DropDuplicatesFrame(df, []string{"k"})
			if err != nil {
				return 0, err
			}
			return out.NRows(), nil
		},
	}
	for _, name := range []string{"groupby", "summarize", "dropdup"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n, err := kernels[name](); err != nil || n != 25_000 {
					b.Fatalf("%d keys, err %v", n, err)
				}
			}
		})
	}
}

// joinBuildFrame is a join's right input of rows rows over keys distinct Int
// keys, in shuffled order.
func joinBuildFrame(rows, keys int) *core.DataFrame {
	k := make([]int64, rows)
	v := make([]float64, rows)
	for i, p := range rand.New(rand.NewSource(11)).Perm(rows) {
		k[i], v[i] = int64(p%keys), float64(i)
	}
	return core.MustNew([]string{"key", "v"}, []vector.Vector{vector.NewInt(k, nil), vector.NewFloat(v, nil)})
}

// BenchmarkJoinTableBuild times one JoinTable build at the two shapes its
// presizing trades between: a unique-key build (shuffle_wide's 70,000-row
// dimension), where reserving every row's key slot skips the appends' regrowth,
// and a 1,000,000-row build over 10 keys, which reserves slots it never fills.
//
//	go test -run '^$' -bench JoinTableBuild -benchmem ./internal/algebra
func BenchmarkJoinTableBuild(b *testing.B) {
	for _, c := range []struct {
		name       string
		rows, keys int
	}{{"70k-unique", 70_000, 70_000}, {"1m-10keys", 1_000_000, 10}} {
		right := joinBuildFrame(c.rows, c.keys)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				BuildJoinTable(right, []string{"key"}, false)
			}
		})
	}
}

// BenchmarkJoinTableProbe times the probe of shuffle_wide's join without
// assembling its output: the 75,000 fact keys, drawn from 26,500, against
// the table over the 70,000-row dimension's unique keys, inner and left.
// The keys are non-null Ints, so no hash match is checked (an exact key).
//
//	go test -run '^$' -bench JoinTableProbe -benchmem ./internal/algebra
func BenchmarkJoinTableProbe(b *testing.B) {
	t := BuildJoinTable(joinBuildFrame(70_000, 70_000), []string{"key"}, false)
	r := rand.New(rand.NewSource(7))
	fact := make([]int64, 75_000)
	for i := range fact {
		fact[i] = int64(r.Intn(26_500))
	}
	keys := []vector.Vector{vector.NewInt(fact, nil)}
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				t.probe(len(fact), keys, kind)
			}
		})
	}
}

// BenchmarkHashRoute times the key-shuffle router over the 50,000 taxi
// rows into 7 buckets on the key shapes the groupby routes by: a Dict key
// (vendor_id, routed once per code), a nullable Int key (passenger_count)
// and a composite key of both.
//
//	go test -run '^$' -bench HashRoute -benchmem ./internal/algebra
func BenchmarkHashRoute(b *testing.B) {
	taxi := benchTaxi()
	col := func(name string) vector.Vector { return taxi.TypedCol(taxi.ColIndex(name)) }
	for _, c := range []struct {
		name string
		keys []vector.Vector
	}{
		{"dict", []vector.Vector{col("vendor_id")}},
		{"int", []vector.Vector{col("passenger_count")}},
		{"composite", []vector.Vector{col("vendor_id"), col("passenger_count")}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				HashRoute(c.keys, taxi.NRows(), 7)
			}
		})
	}
}
