package vector

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/types"
)

// mixedVectors returns one vector per representation, all length 4 with a
// null at position 2.
func mixedVectors() map[string]Vector {
	nulls := []bool{false, false, true, false}
	return map[string]Vector{
		"int":      NewInt([]int64{5, -1, 0, 5}, nulls),
		"float":    NewFloat([]float64{5, -1.5, 0, 5}, nulls),
		"bool":     NewBool([]bool{true, false, false, true}, nulls),
		"datetime": NewDatetime([]int64{5, 1, 0, 5}, nulls),
		"object":   NewObject([]string{"a", "b", "", "a"}, nulls),
		"dict":     NewDict([]int32{0, 1, 0, 0}, []string{"a", "b"}, nulls),
	}
}

func TestHashMatchesHashValue(t *testing.T) {
	const seed = 42
	for name, v := range mixedVectors() {
		dst := make([]uint64, v.Len())
		Hash(v, seed, dst)
		for i := range dst {
			if want := HashValue(v.Value(i), seed); dst[i] != want {
				t.Errorf("%s[%d]: bulk hash %x != scalar hash %x", name, i, dst[i], want)
			}
		}
	}
}

func TestHashCanonicalAcrossDomains(t *testing.T) {
	const seed = 7
	// Equal values must hash equal regardless of representation: the
	// invariant that lets hash tables replace rendered keys.
	pairs := [][2]types.Value{
		{types.IntValue(5), types.FloatValue(5)},
		{types.BoolValue(true), types.IntValue(1)},
		{types.BoolValue(false), types.FloatValue(0)},
		{types.String("x"), types.CategoryValue("x")},
		{types.Null(), types.NullValue(types.Int)},
		{types.NullValue(types.Float), types.NullValue(types.Category)},
	}
	for _, p := range pairs {
		if HashValue(p[0], seed) != HashValue(p[1], seed) {
			t.Errorf("%#v and %#v should hash equal", p[0], p[1])
		}
	}
	// And distinguishable kinds must (here) hash apart.
	if HashValue(types.IntValue(5), seed) == HashValue(types.DatetimeFromNanos(5), seed) {
		t.Error("int 5 and datetime 5ns should hash apart")
	}
	if HashValue(types.String("5"), seed) == HashValue(types.IntValue(5), seed) {
		t.Error(`string "5" and int 5 should hash apart`)
	}
}

func TestHashRowsOrderSensitive(t *testing.T) {
	a := NewObject([]string{"a"}, nil)
	b := NewObject([]string{"b"}, nil)
	h1 := make([]uint64, 1)
	h2 := make([]uint64, 1)
	HashRows([]Vector{a, b}, 1, h1)
	HashRows([]Vector{b, a}, 1, h2)
	if h1[0] == h2[0] {
		t.Error(`("a","b") and ("b","a") should hash apart`)
	}
	if want := HashRowValues([]types.Value{types.String("a"), types.String("b")}, 1); h1[0] != want {
		t.Errorf("HashRows %x != HashRowValues %x", h1[0], want)
	}
}

func TestEqualRowsAgreesWithValueEqual(t *testing.T) {
	vs := mixedVectors()
	for an, a := range vs {
		for bn, b := range vs {
			for i := 0; i < a.Len(); i++ {
				for j := 0; j < b.Len(); j++ {
					got := EqualRows(a, i, b, j)
					want := a.Value(i).Equal(b.Value(j))
					if got != want {
						t.Errorf("EqualRows(%s[%d], %s[%d]) = %v, Value.Equal = %v", an, i, bn, j, got, want)
					}
				}
			}
		}
	}
}

// TestViewHashAndEqualityMatchMaterialized checks the view cases of Hash and
// EqualRows, which read a selection view's base storage through its index
// instead of copying it: hashing a view equals hashing its materialized
// copy, and EqualRows over views agrees with KeyEqual on the boxed cells —
// across -1 entries, Dict against Object, Int against Float, NaN, null and
// -0.
func TestViewHashAndEqualityMatchMaterialized(t *testing.T) {
	const seed = 3
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	bases := map[string]Vector{
		"int":      NewInt([]int64{5, -1, 0, 5, 2}, []bool{false, false, true, false, false}),
		"float":    NewFloat([]float64{5, -1.5, nan, negZero, 0, 2.5}, []bool{false, false, false, false, false, true}),
		"bool":     NewBool([]bool{true, false, true}, []bool{false, false, true}),
		"datetime": NewDatetime([]int64{5, 0, 7}, []bool{false, true, false}),
		"object":   NewObject([]string{"a", "b", "", "NA"}, []bool{false, false, true, false}),
		"dict":     NewDict([]int32{1, 0, 2, 0}, []string{"a", "b", "NA"}, []bool{false, false, false, true}),
	}
	vs := map[string]Vector{}
	for name, b := range bases {
		// Every row of the base, backwards, between two -1 entries.
		idx := []int{-1}
		for i := b.Len() - 1; i >= 0; i-- {
			idx = append(idx, i)
		}
		vs[name] = b
		vs[name+" view"] = TakeView(b, append(idx, -1))
	}
	for name, v := range vs {
		got, want := make([]uint64, v.Len()), make([]uint64, v.Len())
		Hash(v, seed, got)
		Hash(Materialize(v), seed, want)
		if !slices.Equal(got, want) {
			t.Errorf("Hash(%s) = %x, Hash of its materialized copy = %x", name, got, want)
		}
	}
	for an, a := range vs {
		for bn, b := range vs {
			for i := 0; i < a.Len(); i++ {
				for j := 0; j < b.Len(); j++ {
					if got, want := EqualRows(a, i, b, j), KeyEqual(a.Value(i), b.Value(j)); got != want {
						t.Errorf("EqualRows(%s[%d], %s[%d]) = %v, KeyEqual = %v", an, i, bn, j, got, want)
					}
				}
			}
		}
	}
}

func TestCompareRowsAgreesWithValueCompare(t *testing.T) {
	vs := mixedVectors()
	for an, a := range vs {
		for bn, b := range vs {
			for i := 0; i < a.Len(); i++ {
				for j := 0; j < b.Len(); j++ {
					got := CompareRows(a, i, b, j)
					want := a.Value(i).Compare(b.Value(j))
					if got != want {
						t.Errorf("CompareRows(%s[%d], %s[%d]) = %d, Value.Compare = %d", an, i, bn, j, got, want)
					}
				}
			}
		}
	}
}

func TestCompareRowValueAgreesWithValueCompare(t *testing.T) {
	operands := []types.Value{
		types.IntValue(2), types.FloatValue(2.5), types.BoolValue(false),
		types.String("b"), types.CategoryValue("b"),
		types.DatetimeFromNanos(3), types.Null(),
		types.DatetimeValue(time.Unix(0, 5)),
	}
	for name, v := range mixedVectors() {
		for i := 0; i < v.Len(); i++ {
			for _, o := range operands {
				if got, want := CompareRowValue(v, i, o), v.Value(i).Compare(o); got != want {
					t.Errorf("CompareRowValue(%s[%d], %#v) = %d, want %d", name, i, o, got, want)
				}
			}
		}
	}
}

// TestSortKeyMatchesCompareRows requires every pair of rows to compare by
// words, ascending and descending, exactly as CompareRows compares their
// cells, over each kind's extreme values, nulls and a view reading -1; and
// the kinds without a word form to report so.
func TestSortKeyMatchesCompareRows(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	nulls := func(n int, at ...int) []bool {
		m := make([]bool, n)
		for _, i := range at {
			m[i] = true
		}
		return m
	}
	ints := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64, 0, 7}
	floats := []float64{math.Inf(-1), -math.MaxFloat64, -1, -5e-324, negZero, 0, 5e-324, 1, math.MaxFloat64, math.Inf(1), nan, 3}
	keys := map[string]Vector{
		"int":          NewInt(ints, nil),
		"int-nulls":    NewInt(ints, nulls(len(ints), 5)),
		"datetime":     NewDatetime(ints, nulls(len(ints), 6)),
		"float":        NewFloat(floats, nulls(len(floats), 11)),
		"bool":         NewBool([]bool{true, false, true, false}, nulls(4, 2)),
		"dict":         NewDict([]int32{0, 1, 2, 3, 1, 0}, []string{"pear", "apple", "fig", "apple"}, nulls(6, 5)),
		"view-int":     TakeView(NewInt(ints, nil), []int{4, -1, 0, 2, 0, -1}),
		"view-float":   TakeView(NewFloat(floats, nil), []int{10, 4, 5, -1, 0, 9}),
		"view-dict":    TakeView(NewDict([]int32{2, 0, 1}, []string{"b", "c", "a"}, nil), []int{0, 1, -1, 2, 0}),
		"sliced-float": NewFloat(floats, nil).Slice(3, 9),
	}
	for name, v := range keys {
		for _, desc := range []bool{false, true} {
			k, ok := NewSortKey([]Vector{v}, []bool{desc})
			if !ok {
				t.Fatalf("%s: no word form", name)
			}
			words := make([]uint64, v.Len()*k.Width())
			k.Fill(words)
			for i := 0; i < v.Len(); i++ {
				for j := 0; j < v.Len(); j++ {
					want := CompareRows(v, i, v, j)
					if desc {
						want = -want
					}
					m := k.Width()
					if got := k.Compare(i, j); got != want {
						t.Errorf("%s desc=%v: Compare(%d, %d) = %d, CompareRows says %d", name, desc, i, j, got, want)
					}
					if got := slices.Compare(words[i*m:i*m+m], words[j*m:j*m+m]); got != want {
						t.Errorf("%s desc=%v: filled words of %d, %d compare %d, CompareRows says %d", name, desc, i, j, got, want)
					}
				}
			}
		}
	}
	for name, v := range map[string]Vector{
		"object":       NewObject([]string{"b", "a"}, nil),
		"boxed":        NewAny([]types.Value{types.IntValue(1), types.FloatValue(0.5)}),
		"view-of-view": TakeView(TakeView(NewInt([]int64{1, 2}, nil), []int{1, 0}), []int{0}),
	} {
		if _, ok := NewSortKey([]Vector{NewInt([]int64{1, 2}, nil), v}, []bool{false, false}); ok {
			t.Errorf("%s: reported a word form", name)
		}
	}
}

func TestFilterKernelsAgainstBoxedCompare(t *testing.T) {
	operands := map[string]types.Value{
		"int":      types.IntValue(0),
		"float":    types.FloatValue(0),
		"bool":     types.BoolValue(true),
		"datetime": types.DatetimeFromNanos(1),
		"object":   types.String("a"),
		"dict":     types.CategoryValue("a"),
	}
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	for name, v := range mixedVectors() {
		o := operands[name]
		for _, op := range ops {
			got, ok := Filter(v, op, o, nil)
			if !ok {
				t.Fatalf("Filter(%s, %v): no kernel", name, op)
			}
			var want []int
			for i := 0; i < v.Len(); i++ {
				if !v.IsNull(i) && op.Accept(v.Value(i).Compare(o)) {
					want = append(want, i)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("Filter(%s, %v) = %v, want %v", name, op, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Filter(%s, %v) = %v, want %v", name, op, got, want)
				}
			}
		}
	}
}

func TestFilterNullOperandAndSelChaining(t *testing.T) {
	v := NewInt([]int64{1, 2, 3, 4}, []bool{false, true, false, true})
	if got, ok := Filter(v, CmpEq, types.Null(), nil); !ok || len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Eq null = %v (%v), want null positions [1 3]", got, ok)
	}
	if got, ok := Filter(v, CmpNe, types.Null(), nil); !ok || len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Ne null = %v (%v), want non-null positions [0 2]", got, ok)
	}
	if got, ok := Filter(v, CmpLt, types.Null(), nil); !ok || len(got) != 0 {
		t.Errorf("Lt null = %v (%v), want empty", got, ok)
	}
	// sel narrows candidates: only position 2 among [2,3] is non-null > 1.
	if got, ok := Filter(v, CmpGt, types.IntValue(1), []int{2, 3}); !ok || len(got) != 1 || got[0] != 2 {
		t.Errorf("Gt 1 over sel [2 3] = %v (%v), want [2]", got, ok)
	}
	// Non-integral operand over int storage.
	if got, ok := Filter(v, CmpLt, types.FloatValue(2.5), nil); !ok || len(got) != 1 || got[0] != 0 {
		t.Errorf("int < 2.5 = %v (%v), want [0]", got, ok)
	}
	// No kernel for incomparable operand: caller must fall back.
	if _, ok := Filter(v, CmpEq, types.String("x"), nil); ok {
		t.Error("int vs string operand should report no kernel")
	}
}

func TestFilterDictComparesPerDictionaryEntry(t *testing.T) {
	v := NewDict([]int32{0, 1, 2, 1, 0}, []string{"b", "a", "c"}, []bool{false, false, false, true, false})
	got := FilterDict([]int32{0, 1, 2, 1, 0}, []string{"b", "a", "c"}, []bool{false, false, false, true, false}, CmpLe, "b", nil)
	// "b"<=b, "a"<=b, "c">b, null skipped, "b"<=b.
	want := []int{0, 1, 4}
	if len(got) != len(want) {
		t.Fatalf("FilterDict = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilterDict = %v, want %v", got, want)
		}
	}
	_ = v
}

// TestKeyEqualExactAboveFloatPrecision locks the hash/verify consistency
// invariant at the float64 precision boundary: types.Value.Equal compares
// cross-domain numerics in float64 space, where 2^53+1 (int) "equals"
// 2^53.0 (float) — but they must NOT be the same grouping key, because
// their canonical hashes differ. KeyEqual (and the typed EqualRows path)
// use exact comparison, so KeyEqual ⇒ hash-equal always holds.
func TestKeyEqualExactAboveFloatPrecision(t *testing.T) {
	const seed = 11
	bigInt := types.IntValue(1<<53 + 1)
	bigFloat := types.FloatValue(1 << 53)
	if !bigInt.Equal(bigFloat) {
		t.Skip("Value.Equal no longer conflates these; KeyEqual divergence moot")
	}
	if KeyEqual(bigInt, bigFloat) {
		t.Error("KeyEqual must compare cross-domain numerics exactly")
	}
	if HashValue(bigInt, seed) == HashValue(bigFloat, seed) {
		t.Error("2^53+1 and 2^53.0 canonicalize to different int64s and must hash apart")
	}
	// The representable pair still matches, hash and verify alike.
	sameInt := types.IntValue(1 << 53)
	if !KeyEqual(sameInt, bigFloat) || HashValue(sameInt, seed) != HashValue(bigFloat, seed) {
		t.Error("2^53 (int) and 2^53.0 (float) are the same key")
	}
	// Typed rows agree with the boxed predicate.
	iv := NewInt([]int64{1<<53 + 1, 1 << 53}, nil)
	fv := NewFloat([]float64{1 << 53, 1 << 53}, nil)
	if EqualRows(iv, 0, fv, 0) {
		t.Error("EqualRows must use the exact canonical comparison")
	}
	if !EqualRows(iv, 1, fv, 1) {
		t.Error("representable pair must stay equal")
	}
	if view := TakeView(iv, []int{1, 0}); EqualRows(view, 1, fv, 0) || !EqualRows(view, 0, fv, 0) {
		t.Error("EqualRows over a view must match KeyEqual")
	}
	// Huge integral floats beyond int64 fall back to bit hashing; equal
	// payloads still share hash and key.
	huge := types.FloatValue(1e300)
	if !KeyEqual(huge, types.FloatValue(1e300)) || HashValue(huge, seed) != HashValue(types.FloatValue(1e300), seed) {
		t.Error("identical out-of-int64-range floats must stay one key")
	}
	if KeyEqual(types.IntValue(1<<62), huge) {
		t.Error("out-of-range float equals no int64")
	}
}

// TestUnmaskedNaNReadsAsNull locks the canonicalization boxed values
// already had: a NaN payload without a mask bit is null (Float.Value maps
// NaN to the Float null), and the kernels must agree — IsNull, NullCount,
// Hash, EqualRows, and the filter kernels.
func TestUnmaskedNaNReadsAsNull(t *testing.T) {
	nan := math.NaN()
	v := NewFloat([]float64{nan, 5, nan}, nil)
	if !v.IsNull(0) || v.IsNull(1) {
		t.Fatal("IsNull must treat unmasked NaN as null")
	}
	if NullCount(v) != 2 {
		t.Errorf("NullCount = %d, want 2", NullCount(v))
	}
	dst := make([]uint64, 3)
	Hash(v, 9, dst)
	for i := range dst {
		if want := HashValue(v.Value(i), 9); dst[i] != want {
			t.Errorf("Hash[%d] = %x, HashValue = %x", i, dst[i], want)
		}
	}
	if dst[0] != HashValue(types.Null(), 9) {
		t.Error("NaN must hash as null")
	}
	if !EqualRows(v, 0, v, 2) {
		t.Error("two NaN cells are both null and must compare equal")
	}
	if EqualRows(v, 0, v, 1) {
		t.Error("NaN (null) must not equal 5")
	}
	if got, ok := Filter(v, CmpEq, types.FloatValue(5), nil); !ok || len(got) != 1 || got[0] != 1 {
		t.Errorf("Eq 5 over [NaN 5 NaN] = %v (%v), want [1]", got, ok)
	}
	if got := FilterNotNull(v, nil); len(got) != 1 || got[0] != 1 {
		t.Errorf("FilterNotNull = %v, want [1]", got)
	}
	if got := FilterNull(v, nil); len(got) != 2 {
		t.Errorf("FilterNull = %v, want the two NaN positions", got)
	}
	if CompareRows(v, 0, v, 1) != -1 {
		t.Error("NaN (null) must sort before 5")
	}
}

func TestNullCountDirect(t *testing.T) {
	for name, v := range mixedVectors() {
		if got := NullCount(v); got != 1 {
			t.Errorf("NullCount(%s) = %d, want 1", name, got)
		}
	}
	if NullCount(NewInt([]int64{1, 2}, nil)) != 0 {
		t.Error("null-free vector should count 0")
	}
	// The generic fallback (a view has no direct count) must agree.
	view := TakeView(NewInt([]int64{1, 2, 3}, []bool{true, false, false}), []int{0, -1, 2})
	if NullCount(view) != 2 {
		t.Error("view null count should include -1 positions and base nulls")
	}
}

// TestNullFlagsCopiesTheMask requires NullFlags to agree with IsNull on
// every representation, to carry no nulls of its own, and to own its
// storage: writing through the result must not reach the input's mask.
func TestNullFlagsCopiesTheMask(t *testing.T) {
	for name, v := range mixedVectors() {
		flags := NullFlags(v)
		if flags.Len() != v.Len() || NullCount(flags) != 0 {
			t.Fatalf("%s: %d flags with %d nulls for %d entries", name, flags.Len(), NullCount(flags), v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			if flags.Value(i).Bool() != v.IsNull(i) {
				t.Errorf("%s: flag %d = %v, IsNull %v", name, i, flags.Value(i), v.IsNull(i))
			}
		}
		flags.RawData()[2] = false
		if !v.IsNull(2) {
			t.Errorf("%s: writing the result cleared the input's null", name)
		}
	}
}

// TestTakeAllNegative locks the edge case the kernel rewrite must preserve:
// Take over only -1 positions yields an all-null vector of the same domain
// (Composite for Any), regardless of representation — flat, viewed,
// chunked, a view over a chunk or a chunk of views. Take of no positions,
// nil or empty, yields zero rows of the input's storage kind.
func TestTakeAllNegative(t *testing.T) {
	ints := func(from int64) Vector {
		data := make([]int64, 64)
		for i := range data {
			data[i] = from + int64(i)
		}
		return NewInt(data, nil)
	}
	all := make([]int, 128)
	for i := range all {
		all[i] = 127 - i
	}
	chunk := Stack(ints(0), ints(64))
	vectors := map[string]Vector{
		"int":            NewInt([]int64{1, 2}, nil),
		"float":          NewFloat([]float64{1, 2}, nil),
		"bool":           NewBool([]bool{true, false}, nil),
		"datetime":       NewDatetime([]int64{1, 2}, nil),
		"object":         NewObject([]string{"a", "b"}, nil),
		"dict":           NewDictFromStrings([]string{"a", "b"}),
		"any":            NewAny([]types.Value{types.IntValue(1), types.String("x")}),
		"view":           TakeView(NewInt([]int64{1, 2}, nil), []int{0, 1}),
		"chunk":          chunk,
		"view of chunk":  TakeView(chunk, all),
		"chunk of views": Stack(TakeView(ints(0), all[64:]), TakeView(ints(64), all[64:])),
	}
	if _, ok := chunk.(*Chunked); !ok {
		t.Fatalf("two 64-row pieces stacked as %T", chunk)
	}
	for name, v := range vectors {
		got := v.Take([]int{-1, -1, -1})
		if got.Len() != 3 || got.Domain() != v.Domain() {
			t.Fatalf("%s: Take len = %d domain %v, want 3 %v", name, got.Len(), got.Domain(), v.Domain())
		}
		for i := 0; i < 3; i++ {
			if !got.IsNull(i) {
				t.Errorf("%s: Take(-1)[%d] should be null", name, i)
			}
			if !got.Value(i).IsNull() {
				t.Errorf("%s: Take(-1)[%d].Value should be null", name, i)
			}
		}
		kind := reflect.TypeOf(NewBuilder(v.Domain(), 0).Build())
		for _, idx := range [][]int{nil, {}} {
			if got := v.Take(idx); got.Len() != 0 || reflect.TypeOf(got) != kind {
				t.Errorf("%s: Take(%#v) = %T of %d rows, want %v of none", name, idx, got, got.Len(), kind)
			}
		}
	}
}
