package algebra

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// boxedTwin is fn with its bulk Column form cleared: the per-cell path the
// bulk form must reproduce.
func boxedTwin(fn expr.MapFn) expr.MapFn {
	fn.Column = nil
	return fn
}

// oneColumn wraps v as a one-column frame declared in dom; Unspecified
// leaves the column to be induced on first typed access.
func oneColumn(v vector.Vector, dom types.Domain) *core.DataFrame {
	return core.MustBuild([]vector.Vector{v}, nil, []types.Value{types.String("c")}, []types.Domain{dom}, nil)
}

// assertBulkMatchesBoxed runs fn and its boxed twin over df and requires
// equal frames with the same stored and declared domain per column.
func assertBulkMatchesBoxed(t *testing.T, df *core.DataFrame, fn expr.MapFn) {
	t.Helper()
	bulk, err := MapFrame(df, fn)
	if err != nil {
		t.Fatalf("bulk: %v", err)
	}
	boxed, err := MapFrame(df, boxedTwin(fn))
	if err != nil {
		t.Fatalf("boxed: %v", err)
	}
	if !bulk.Equal(boxed) {
		t.Fatalf("bulk differs from boxed:\n%s\nvs\n%s", bulk, boxed)
	}
	for j := 0; j < bulk.NCols(); j++ {
		if got, want := bulk.Col(j).Domain(), boxed.Col(j).Domain(); got != want {
			t.Errorf("column %d: bulk stores %v, boxed %v", j, got, want)
		}
		if got, want := bulk.DeclaredDomain(j), boxed.DeclaredDomain(j); got != want {
			t.Errorf("column %d: bulk declares %v, boxed %v", j, got, want)
		}
	}
}

func TestBulkMapMatchesBoxed(t *testing.T) {
	mask := []bool{false, true, false, false, true}
	nan := math.NaN()
	ints := vector.NewInt([]int64{1, 2, 3, 4, 5}, mask)
	floats := vector.NewFloat([]float64{1.5, 2, nan, 0, nan}, mask)
	hour := int64(3600e9)
	cases := []struct {
		name string
		col  vector.Vector
		dom  types.Domain
	}{
		{"int", ints, types.Int},
		{"int-unmasked", vector.NewInt([]int64{7, 8, 9}, nil), types.Int},
		{"float-masked-and-nan", floats, types.Float},
		{"float-unmasked-nan", vector.NewFloat([]float64{nan, 1, nan}, nil), types.Float},
		{"bool", vector.NewBool([]bool{true, false, true, true, false}, mask), types.Bool},
		{"datetime", vector.NewDatetime([]int64{0, hour, 2 * hour, 3 * hour, 4 * hour}, mask), types.Datetime},
		{"dict", vector.NewDict([]int32{0, 1, 0, 1, 0}, []string{"cash", "card"}, mask), types.Category},
		{"object", vector.NewObject([]string{"ann", "", "cat", "dan", "NA"}, mask), types.Object},
		{"any", vector.NewAny([]types.Value{types.IntValue(1), types.Null(), types.String("x"), types.NullValue(types.Composite), types.FloatValue(nan)}), types.Composite},
		{"view", vector.TakeView(ints, []int{4, -1, 0, 1, -1, 2}), types.Int},
		{"view-of-float", vector.TakeView(floats, []int{2, 0, -1}), types.Float},
		{"slice", ints.Slice(1, 4), types.Int},
		{"slice-of-float", floats.Slice(2, 5), types.Float},
		{"slice-of-view", vector.TakeView(ints, []int{-1, 1, 2, 4}).Slice(1, 3), types.Int},
		{"empty", vector.NewInt(nil, nil), types.Int},
		{"all-null-float", vector.Nulls(types.Float, 4), types.Float},
		{"all-null-dict", vector.Nulls(types.Category, 3), types.Category},
		{"raw-induces-int", vector.NewObjectFromStrings([]string{"1", "", "3", "NA"}), types.Unspecified},
		{"raw-induces-float", vector.NewObjectFromStrings([]string{"1.5", "", "nan"}), types.Unspecified},
		{"raw-view", vector.TakeView(vector.NewObjectFromStrings([]string{"x", "", "y"}), []int{2, -1, 1, 0}), types.Unspecified},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			assertBulkMatchesBoxed(t, oneColumn(c.col, c.dom), IsNullFn())
		})
	}

	// Every kind side by side in one frame, as a band of a real table.
	cols := make([]vector.Vector, 0, len(cases))
	labels := make([]types.Value, 0, len(cases))
	doms := make([]types.Domain, 0, len(cases))
	for _, c := range cases[:9] {
		if c.col.Len() == 5 {
			cols = append(cols, c.col)
			labels = append(labels, types.String(c.name))
			doms = append(doms, c.dom)
		}
	}
	assertBulkMatchesBoxed(t, core.MustBuild(cols, nil, labels, doms, nil), IsNullFn())
}

// fuzzColumn decodes a column from a fuzzed byte string: data[0] picks the
// kind, data[1] how it is wrapped (bare, sliced, or a selection view), and
// every later byte one cell — bit 7 a null-mask bit, the low bits the
// payload.
func fuzzColumn(data []byte) (vector.Vector, types.Domain) {
	if len(data) < 2 {
		return vector.NewInt(nil, nil), types.Int
	}
	kind, wrap, cells := data[0]%8, data[1]%3, data[2:]
	n := len(cells)
	var mask []bool
	for i, b := range cells {
		if b&0x80 != 0 {
			if mask == nil {
				mask = make([]bool, n)
			}
			mask[i] = true
		}
	}
	payload := func(i int) int { return int(cells[i] & 0x7f) }
	var col vector.Vector
	dom := types.Unspecified
	switch kind {
	case 0:
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(payload(i) - 64)
		}
		col, dom = vector.NewInt(xs, mask), types.Int
	case 1:
		xs := make([]float64, n)
		for i := range xs {
			if xs[i] = float64(payload(i)) / 4; payload(i) >= 0x7c {
				xs[i] = math.NaN() // unmasked NaN reads as null
			}
		}
		col, dom = vector.NewFloat(xs, mask), types.Float
	case 2:
		xs := make([]bool, n)
		for i := range xs {
			xs[i] = payload(i)&1 == 1
		}
		col, dom = vector.NewBool(xs, mask), types.Bool
	case 3:
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(payload(i)) * 3600e9
		}
		col, dom = vector.NewDatetime(xs, mask), types.Datetime
	case 4:
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(payload(i) % 4)
		}
		col, dom = vector.NewDict(codes, []string{"a", "b", "c", "d"}, mask), types.Category
	case 5:
		xs := make([]string, n)
		for i := range xs {
			xs[i] = "s" + strconv.Itoa(payload(i))
		}
		col, dom = vector.NewObject(xs, mask), types.Object
	case 6:
		xs := make([]types.Value, n)
		for i := range xs {
			switch {
			case mask != nil && mask[i]:
				xs[i] = types.NullValue(types.Composite)
			case payload(i)%3 == 0:
				xs[i] = types.String(strconv.Itoa(payload(i)))
			default:
				xs[i] = types.IntValue(int64(payload(i)))
			}
		}
		col, dom = vector.NewAny(xs), types.Composite
	default:
		// Raw text the MAP must induce first: numbers, null literals and
		// the odd word that forces Object.
		xs := make([]string, n)
		for i := range xs {
			switch p := payload(i); {
			case p%7 == 0:
				xs[i] = ""
			case p%7 == 1:
				xs[i] = "NA"
			case p == 0x7e:
				xs[i] = "word"
			default:
				xs[i] = strconv.Itoa(p)
			}
		}
		col = vector.NewObjectFromStrings(xs)
	}
	switch wrap {
	case 1:
		col = col.Slice(n/4, n-n/4)
	case 2:
		idx := make([]int, n)
		for i := range idx {
			if idx[i] = (i * 7) % n; i%5 == 4 {
				idx[i] = -1
			}
		}
		col = vector.TakeView(col, idx)
	}
	return col, dom
}

func FuzzBulkMapMatchesBoxed(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0x82, 3})
	f.Add([]byte{1, 0, 0x7f, 0x81, 4, 0x7c})
	f.Add([]byte{2, 1, 1, 0x80, 0, 1, 1})
	f.Add([]byte{3, 2, 5, 0x85, 6, 7, 8, 9})
	f.Add([]byte{4, 2, 0, 1, 0x82, 3, 4, 5})
	f.Add([]byte{5, 1, 9, 0x89, 10})
	f.Add([]byte{6, 0, 0, 0x81, 2, 3})
	f.Add([]byte{7, 0, 0, 1, 2, 0x7e})
	f.Add([]byte{7, 2, 8, 15, 22})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		col, dom := fuzzColumn(data)
		assertBulkMatchesBoxed(t, oneColumn(col, dom), IsNullFn())
	})
}
