package df

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
	"repro/internal/workload"
)

func whereSample(t *testing.T) *DataFrame {
	t.Helper()
	d, err := New(
		[]string{"dept", "salary", "years"},
		[][]any{
			{"eng", 100.0, 5},
			{"ops", 80.0, nil},
			{"eng", 120.0, 2},
			{nil, 90.0, 7},
			{"sales", 70.0, 1},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWhereCompilesToKernels(t *testing.T) {
	d := whereSample(t)

	eng, err := d.Where(Eq("dept", Str("eng")))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Len() != 2 {
		t.Errorf("eng rows = %d, want 2", eng.Len())
	}

	// Conjunction: eng AND salary > 110.
	rich, err := d.Where(Eq("dept", Str("eng")), Gt("salary", Float(110)))
	if err != nil {
		t.Fatal(err)
	}
	if rich.Len() != 1 {
		t.Fatalf("eng/salary>110 rows = %d, want 1", rich.Len())
	}
	if v, err := rich.Iloc(0, 1); err != nil || v.Float() != 120 {
		t.Errorf("surviving salary = %v (%v), want 120", v, err)
	}

	// Null handling: comparisons never match null cells; NotNull/IsNull
	// select by null-ness.
	tenured, err := d.Where(Ge("years", Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if tenured.Len() != 4 {
		t.Errorf("years>=1 should skip the null cell: %d rows", tenured.Len())
	}
	noDept, err := d.Where(IsNull("dept"))
	if err != nil {
		t.Fatal(err)
	}
	if noDept.Len() != 1 {
		t.Errorf("IsNull(dept) rows = %d, want 1", noDept.Len())
	}
	all, err := d.Where()
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != d.Len() {
		t.Error("zero conditions must keep every row")
	}

	// Where must agree with the equivalent opaque Filter.
	viaFilter, err := d.Filter("dept==eng", func(r Row) bool {
		v := r.ByName("dept")
		return !v.IsNull() && v.Str() == "eng"
	})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Equal(viaFilter) {
		t.Error("Where and Filter disagree")
	}
}

func TestDropNAStructured(t *testing.T) {
	d := whereSample(t)
	clean, err := d.DropNA()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != 3 {
		t.Errorf("DropNA rows = %d, want 3", clean.Len())
	}
}

// BenchmarkFusedFilterChain stacks three selective filters and runs the
// plan as built, below the optimizer (which would fuse them into one
// SELECTION). Under MODIN the chain fuses into one task per band that passes
// a narrowing selection-vector view from filter to filter and materializes
// once at stage exit; the baseline materializes after every filter. The gap
// shows up in allocated bytes/op.
func BenchmarkFusedFilterChain(b *testing.B) {
	taxi := algebra.InduceFrame(workload.Taxi(workload.DefaultTaxiOptions(50_000)))
	var plan algebra.Node = &algebra.Source{DF: taxi, Name: "taxi"}
	for _, w := range []*expr.Where{
		expr.WhereNotNull("passenger_count"),
		expr.WhereEquals("vendor_id", types.String("CMT")),
		expr.WhereCompare("total_amount", vector.CmpGt, types.FloatValue(10)),
	} {
		plan = &algebra.Selection{Input: plan, Where: w, Pred: w.Predicate(), Desc: w.Describe()}
	}
	for name, e := range map[string]Engine{"baseline": NewBaselineEngine(), "modin": NewModinEngine()} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Execute(plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
