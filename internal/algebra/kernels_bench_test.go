package algebra

import (
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
