package vector

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestObjectVectorBasics(t *testing.T) {
	v := NewObjectFromStrings([]string{"a", "NA", "c"})
	if v.Len() != 3 || v.Domain() != types.Object {
		t.Fatalf("len/domain wrong: %d %v", v.Len(), v.Domain())
	}
	if !v.IsNull(1) || v.IsNull(0) {
		t.Error("null literal detection wrong")
	}
	if v.Value(0).Str() != "a" || !v.Value(1).IsNull() {
		t.Error("values wrong")
	}
}

func TestEveryVectorKindSliceTake(t *testing.T) {
	vectors := map[string]Vector{
		"object":   NewObjectFromStrings([]string{"a", "b", "NA", "d", "e"}),
		"int":      NewInt([]int64{1, 2, 3, 4, 5}, []bool{false, false, true, false, false}),
		"float":    NewFloat([]float64{1, 2, 3, 4, 5}, []bool{false, false, true, false, false}),
		"bool":     NewBool([]bool{true, false, true, false, true}, []bool{false, false, true, false, false}),
		"datetime": NewDatetime([]int64{10, 20, 30, 40, 50}, []bool{false, false, true, false, false}),
		"dict":     NewDictFromStrings([]string{"x", "y", "NA", "x", "y"}),
		"any": NewAny([]types.Value{
			types.IntValue(1), types.String("b"), types.NullValue(types.Composite),
			types.BoolValue(true), types.FloatValue(5),
		}),
	}
	for name, v := range vectors {
		t.Run(name, func(t *testing.T) {
			if v.Len() != 5 {
				t.Fatalf("len = %d", v.Len())
			}
			if !v.IsNull(2) {
				t.Fatal("index 2 should be null")
			}
			s := v.Slice(1, 4)
			if s.Len() != 3 {
				t.Fatalf("slice len = %d", s.Len())
			}
			if !s.Value(0).Equal(v.Value(1)) || !s.Value(2).Equal(v.Value(3)) {
				t.Error("slice values wrong")
			}
			if !s.IsNull(1) {
				t.Error("slice should preserve nulls")
			}
			tk := v.Take([]int{4, 0, -1, 2})
			if tk.Len() != 4 {
				t.Fatalf("take len = %d", tk.Len())
			}
			if !tk.Value(0).Equal(v.Value(4)) || !tk.Value(1).Equal(v.Value(0)) {
				t.Error("take values wrong")
			}
			if !tk.IsNull(2) {
				t.Error("take -1 should be null")
			}
			if !tk.IsNull(3) {
				t.Error("take of null entry should stay null")
			}
		})
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewInt([]int64{1, 2}, nil).Slice(0, 3)
}

func TestBuilderPerDomain(t *testing.T) {
	cases := []struct {
		dom  types.Domain
		vals []types.Value
	}{
		{types.Object, []types.Value{types.String("a"), types.Null(), types.String("b")}},
		{types.Int, []types.Value{types.IntValue(1), types.NullValue(types.Int), types.IntValue(-2)}},
		{types.Float, []types.Value{types.FloatValue(1.5), types.NullValue(types.Float), types.FloatValue(0)}},
		{types.Bool, []types.Value{types.BoolValue(true), types.NullValue(types.Bool), types.BoolValue(false)}},
		{types.Category, []types.Value{types.CategoryValue("x"), types.NullValue(types.Category), types.CategoryValue("x")}},
	}
	for _, c := range cases {
		t.Run(c.dom.String(), func(t *testing.T) {
			got := FromValues(c.dom, c.vals)
			if got.Domain() != c.dom {
				t.Fatalf("domain = %v, want %v", got.Domain(), c.dom)
			}
			for i, want := range c.vals {
				if want.IsNull() != got.IsNull(i) {
					t.Errorf("null[%d] mismatch", i)
				}
				if !want.IsNull() && !got.Value(i).Equal(want) {
					t.Errorf("value[%d] = %v, want %v", i, got.Value(i), want)
				}
			}
		})
	}
}

func TestBuilderCoercion(t *testing.T) {
	// Int builder accepts floats, bools and numeric strings.
	b := NewBuilder(types.Int, 0)
	b.Append(types.FloatValue(3.0))
	b.Append(types.BoolValue(true))
	b.Append(types.String("7"))
	b.Append(types.String("junk")) // unparseable → null
	v := b.Build()
	want := []int64{3, 1, 7}
	for i, w := range want {
		if v.Value(i).Int() != w {
			t.Errorf("value[%d] = %v, want %d", i, v.Value(i), w)
		}
	}
	if !v.IsNull(3) {
		t.Error("unparseable should become null")
	}
}

func TestBuilderAppendString(t *testing.T) {
	b := NewBuilder(types.Float, 0)
	b.AppendString("2.5")
	b.AppendString("NA")
	b.AppendString("bad")
	v := b.Build()
	if v.Value(0).Float() != 2.5 || !v.IsNull(1) || !v.IsNull(2) {
		t.Errorf("AppendString results wrong: %v %v %v", v.Value(0), v.Value(1), v.Value(2))
	}
}

func TestConcatMixedDomainsFallsBackToObject(t *testing.T) {
	a := NewInt([]int64{1, 2}, nil)
	b := NewObjectFromStrings([]string{"x"})
	c := Concat(a, b)
	if c.Domain() != types.Object || c.Len() != 3 {
		t.Fatalf("concat = %v len %d", c.Domain(), c.Len())
	}
	if c.Value(0).Str() != "1" || c.Value(2).Str() != "x" {
		t.Error("concat values wrong")
	}
}

func TestConcatSameDomain(t *testing.T) {
	a := NewInt([]int64{1}, nil)
	b := NewInt([]int64{2}, []bool{true})
	c := Concat(a, b)
	if c.Domain() != types.Int || c.Len() != 2 {
		t.Fatal("concat same domain wrong")
	}
	if c.Value(0).Int() != 1 || !c.IsNull(1) {
		t.Error("concat values wrong")
	}
	if Concat().Len() != 0 {
		t.Error("empty concat")
	}
}

func TestDictEncoding(t *testing.T) {
	d := NewDictFromStrings([]string{"a", "b", "a", "a", "b"})
	if len(d.Categories()) != 2 {
		t.Fatalf("categories = %v", d.Categories())
	}
	if d.Value(0).Str() != "a" || d.Value(4).Str() != "b" {
		t.Error("dict values wrong")
	}
}

func TestRepeatNullsRange(t *testing.T) {
	r := Repeat(types.IntValue(7), 3)
	if r.Len() != 3 || r.Value(2).Int() != 7 {
		t.Error("repeat wrong")
	}
	n := Nulls(types.Float, 2)
	if n.Len() != 2 || !n.IsNull(0) || n.Domain() != types.Float {
		t.Error("nulls wrong")
	}
	rg := Range(5, 3)
	if rg.Value(0).Int() != 5 || rg.Value(2).Int() != 7 {
		t.Error("range wrong")
	}
}

func TestEqualAndHelpers(t *testing.T) {
	a := NewInt([]int64{1, 2, 3}, nil)
	b := NewFloat([]float64{1, 2, 3}, nil)
	if !Equal(a, b) {
		t.Error("cross-domain numeric vectors should be Equal")
	}
	if Equal(a, NewInt([]int64{1, 2}, nil)) {
		t.Error("length mismatch should not be Equal")
	}
	if NullCount(NewInt([]int64{1, 2}, []bool{true, false})) != 1 {
		t.Error("NullCount wrong")
	}
	if got := Strings(a); got[0] != "1" || len(got) != 3 {
		t.Error("Strings wrong")
	}
	if got := Values(a); !got[2].Equal(types.IntValue(3)) {
		t.Error("Values wrong")
	}
}

func TestTakeSliceCompositionProperty(t *testing.T) {
	// Slice(lo,hi).Value(i) == Value(lo+i), and Take(idx).Value(j) ==
	// Value(idx[j]) for all vector kinds, property-checked on ints.
	prop := func(data []int64, loRaw, hiRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		v := NewInt(data, nil)
		lo := int(loRaw) % len(data)
		hi := lo + int(hiRaw)%(len(data)-lo+1)
		s := v.Slice(lo, hi)
		for i := 0; i < s.Len(); i++ {
			if !s.Value(i).Equal(v.Value(lo + i)) {
				return false
			}
		}
		idx := make([]int, 0, len(data))
		for i := range data {
			idx = append(idx, len(data)-1-i)
		}
		tk := v.Take(idx)
		for j, i := range idx {
			if !tk.Value(j).Equal(v.Value(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBuilderRoundTripProperty(t *testing.T) {
	// Building from Values(v) reproduces v for any int data + null mask.
	prop := func(data []int64, nullSeed []bool) bool {
		nulls := make([]bool, len(data))
		for i := range nulls {
			if i < len(nullSeed) {
				nulls[i] = nullSeed[i]
			}
		}
		v := NewInt(data, nulls)
		rebuilt := FromValues(types.Int, Values(v))
		return Equal(v, rebuilt)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTakeViewSharesStorage(t *testing.T) {
	base := NewInt([]int64{10, 20, 30, 40}, []bool{false, true, false, false})
	v := TakeView(base, []int{3, 1, 0, -1})
	if v.Len() != 4 || v.Domain() != types.Int {
		t.Fatalf("view shape wrong: len=%d dom=%v", v.Len(), v.Domain())
	}
	if v.Value(0).Int() != 40 {
		t.Error("view value wrong")
	}
	if !v.IsNull(1) || !v.IsNull(3) {
		t.Error("view must surface base nulls and -1 as null")
	}
	sliced := v.Slice(1, 3)
	if sliced.Len() != 2 || sliced.Value(1).Int() != 10 {
		t.Error("view slice wrong")
	}
	taken := v.Take([]int{2, -1, 0})
	if taken.Value(0).Int() != 10 || !taken.IsNull(1) || taken.Value(2).Int() != 40 {
		t.Error("view take should compose selection vectors")
	}
}

// An empty input of another domain — an untyped column from a bucket that
// received no rows — leaves the others' storage alone: no fallback to the
// Object rendering, which cuts timestamps to whole seconds.
func TestConcatIgnoresEmptyInputs(t *testing.T) {
	ts := NewDatetime([]int64{1577934245000000001, 1577934245000000002}, nil)
	empty := NewObjectFromStrings(nil)
	got := Concat(empty, ts.Slice(0, 1), empty, ts.Slice(1, 2))
	if _, ok := got.(*Datetime); !ok || !Equal(got, ts) {
		t.Errorf("Concat around empty inputs = %T %v, want the nanosecond timestamps", got, Values(got))
	}
	if got := Concat(empty, NewInt(nil, nil)); got.Len() != 0 {
		t.Errorf("Concat of empty inputs has %d rows", got.Len())
	}
}
