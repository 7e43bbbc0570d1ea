package modin

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// transposeEngines are the runs a transpose must agree across: 1, 2 and 7
// bands, and a one-worker pool at 7 bands.
func transposeEngines(t *testing.T) map[string]*Engine {
	one := exec.NewPool(1)
	t.Cleanup(one.Close)
	return map[string]*Engine{
		"bands=1": New(WithBands(1)), "bands=2": New(WithBands(2)), "bands=7": New(WithBands(7)),
		"1worker": New(WithPool(one), WithBands(7)),
	}
}

// assertTransposeAgrees runs the plan plan() builds on every
// transposeEngines run and requires it bit-identical to eager's (bitDiff:
// cells, float bits, declared domains, labels). Each comparison gets a
// fresh input and a fresh eager result: reading a cell induces and
// declares its column's domain. It returns an unread eager result.
func assertTransposeAgrees(t *testing.T, plan func() algebra.Node) *core.DataFrame {
	t.Helper()
	run := func(e algebra.Engine) *core.DataFrame {
		t.Helper()
		out, err := e.Execute(plan())
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		return out
	}
	for name, e := range transposeEngines(t) {
		if d := bitDiff(run(eager.New()), run(e), false); d != "" {
			t.Errorf("%s differs from eager: %s", name, d)
		}
	}
	return run(eager.New())
}

// TestTransposeIntBandAndFloatBand: a row MAP types each band's column by
// its own values, so at 2 and 7 bands the transposed input's columns are
// Int in the first bands and Float in the later ones, while eager's whole
// columns are Float; and a band whose rows map to nulls only stores Object
// where eager's whole column is Int. The output's storage is decided over
// every band, a band of nulls having no say, so it is eager's, declared as
// eager declares it, at every band count.
func TestTransposeIntBandAndFloatBand(t *testing.T) {
	mapped := func(name string, cell func(id int64) types.Value) func() algebra.Node {
		return func() algebra.Node {
			return &algebra.Transpose{Input: &algebra.Map{Input: &algebra.Source{DF: testFrame(40)}, Fn: expr.MapFn{
				Name:    name,
				OutCols: []types.Value{types.String("a"), types.String("b")},
				Fn: func(r expr.Row) []types.Value {
					id := r.ByName("id").Int()
					return []types.Value{cell(id), cell(-id)}
				},
			}}}
		}
	}
	for _, c := range []struct {
		name string
		cell func(id int64) types.Value
		want types.Domain
	}{
		{"int-then-float", func(id int64) types.Value {
			if id > -20 && id < 20 {
				return types.IntValue(id)
			}
			return types.FloatValue(math.Copysign(float64(id)+0.5, float64(id)))
		}, types.Float},
		{"nulls-then-int", func(id int64) types.Value {
			if id > -20 && id < 20 {
				return types.NullValue(types.Int)
			}
			return types.IntValue(id)
		}, types.Int},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := assertTransposeAgrees(t, mapped(c.name, c.cell))
			if d := out.Domains(); d[0] != c.want || d[39] != c.want {
				t.Errorf("output declares %v, want %v", d, c.want)
			}
		})
	}
}

// TestTransposeDictBandsWithDifferingTables: a Category column stacked from
// Dict pieces with their own tables transposes to the same Category
// columns whichever band holds which piece.
func TestTransposeDictBandsWithDifferingTables(t *testing.T) {
	const half = 70
	plan := func() algebra.Node {
		cols := make([]vector.Vector, 2)
		for j := range cols {
			a, b := make([]string, half), make([]string, half)
			for i := range a {
				a[i] = fmt.Sprintf("x%d", (i+j)%3)
				b[i] = fmt.Sprintf("y%d", (i*j)%4)
			}
			cols[j] = vector.Stack(vector.NewDictFromStrings(a), vector.NewDictFromStrings(b))
		}
		df := core.MustBuild(cols, vector.Stack(vector.Range(0, half), vector.Range(half, half)),
			[]types.Value{types.String("p"), types.String("q")}, []types.Domain{types.Category, types.Category}, nil)
		return &algebra.Transpose{Input: &algebra.Source{DF: df}}
	}
	out := assertTransposeAgrees(t, plan)
	if out.NCols() != 2*half || out.Value(1, half).Str() != "y0" {
		t.Errorf("shape %dx%d, cell (1, %d) = %v", out.NRows(), out.NCols(), half, out.Value(1, half))
	}
}

// TestTransposeAfterASelectionEmptiesBands: a selection that keeps only
// the later rows empties the first bands; their transposes add no
// columns, and the rest land where eager puts them — over mixed storage
// (boxed) and over Int columns with nulls (typed).
func TestTransposeAfterASelectionEmptiesBands(t *testing.T) {
	late := func(r expr.Row) bool { return r.ByName("id").Int() >= 70 }
	for _, cols := range [][]string{nil, {"id", "val"}} {
		t.Run(fmt.Sprint(cols), func(t *testing.T) {
			assertTransposeAgrees(t, func() algebra.Node {
				var in algebra.Node = &algebra.Selection{Input: &algebra.Source{DF: testFrame(100)}, Pred: late, Desc: "id >= 70"}
				if cols != nil {
					in = &algebra.Projection{Input: in, Cols: cols}
				}
				return &algebra.Transpose{Input: in}
			})
		})
	}
}

// TestTransposeDeclaredSchemaIsBitIdentical: TestEnginesAgreeTransposeDeclaredSchema's
// schema, compared bit for bit, declared domains included.
func TestTransposeDeclaredSchemaIsBitIdentical(t *testing.T) {
	assertTransposeAgrees(t, func() algebra.Node {
		df := core.MustFromRecords([]string{"a", "b", "c"}, [][]any{
			{"1", "2", "3"}, {"4", "5", "6"}, {"7", "8", "9"}, {"x", "y", "z"},
		})
		return &algebra.Transpose{Input: &algebra.Source{DF: df}, Schema: []types.Domain{types.Float, types.Object, types.Int, types.Object}}
	})
}

// TestTypedDoubleTransposeRecoversDomains: a frame of Float columns
// declared Float — NaN, -0 and nulls among the cells — transposes twice
// back to itself, its declared domains recovered exactly, at every band
// count.
func TestTypedDoubleTransposeRecoversDomains(t *testing.T) {
	const rows = 30
	frame := func() *core.DataFrame {
		cols := make([]vector.Vector, 3)
		for j := range cols {
			xs, mask := make([]float64, rows), make([]bool, rows)
			for i := range xs {
				xs[i] = float64(i*(j+1)) / 4
				switch (i + j) % 7 {
				case 0:
					xs[i] = math.NaN()
				case 1:
					xs[i] = math.Copysign(0, -1)
				case 2:
					mask[i] = true
				}
			}
			cols[j] = vector.NewFloat(xs, mask)
		}
		return core.MustBuild(cols, nil, []types.Value{types.String("x"), types.String("y"), types.String("z")},
			[]types.Domain{types.Float, types.Float, types.Float}, nil)
	}
	out := assertTransposeAgrees(t, func() algebra.Node {
		return &algebra.Transpose{Input: &algebra.Transpose{Input: &algebra.Source{DF: frame()}}}
	})
	if d := bitDiff(frame(), out, false); d != "" {
		t.Errorf("double transpose: %s", d)
	}
	if got := out.Domains(); !slices.Equal(got, frame().Domains()) {
		t.Errorf("declared domains %v, want %v", got, frame().Domains())
	}
}
