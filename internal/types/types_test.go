package types

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDomainString(t *testing.T) {
	cases := map[Domain]string{
		Unspecified: "unspecified",
		Object:      "object",
		Int:         "int",
		Float:       "float",
		Bool:        "bool",
		Category:    "category",
		Datetime:    "datetime",
		Composite:   "composite",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Domain(%d).String() = %q, want %q", int(d), got, want)
		}
	}
	if got := Domain(99).String(); got != "domain(99)" {
		t.Errorf("out-of-range domain = %q", got)
	}
}

func TestParseDomainRoundTrip(t *testing.T) {
	for d := Object; d < Domain(NumDomains)+1; d++ {
		got, ok := ParseDomain(d.String())
		if !ok || got != d {
			t.Errorf("ParseDomain(%q) = %v, %v", d.String(), got, ok)
		}
	}
	if _, ok := ParseDomain("nonsense"); ok {
		t.Error("ParseDomain accepted nonsense")
	}
}

func TestDomainValid(t *testing.T) {
	if Unspecified.Valid() {
		t.Error("Unspecified should not be valid")
	}
	for _, d := range []Domain{Object, Int, Float, Bool, Category, Datetime, Composite} {
		if !d.Valid() {
			t.Errorf("%v should be valid", d)
		}
	}
}

// TestNullLiterals holds IsNullLiteral to the answers of the set it
// replaced, over every spelling and the near misses a length switch could
// get wrong.
func TestNullLiterals(t *testing.T) {
	spellings := map[string]bool{
		"": true, "NA": true, "N/A": true, "NaN": true, "nan": true,
		"null": true, "NULL": true, "None": true, "<NA>": true,
	}
	inputs := []string{
		"Na", "na", "NAN", "Nan", "naN", " NA", "NA ", "na ", "nul", "nulL", "Null", "none", "NONE",
		"<na>", "<NA", "NA>", "N/a", "n/a", "N\\A", " ", "0", "false", "x", "nulls", "<NA>>",
	}
	for s := range spellings {
		inputs = append(inputs, s)
	}
	for _, s := range inputs {
		if got := IsNullLiteral(s); got != spellings[s] {
			t.Errorf("IsNullLiteral(%q) = %v, want %v", s, got, spellings[s])
		}
	}
}

func TestParseInt(t *testing.T) {
	v, err := Int.Parse("42")
	if err != nil || v.Int() != 42 || v.Domain() != Int {
		t.Fatalf("Parse(42) = %v, %v", v, err)
	}
	v, err = Int.Parse(" -7 ")
	if err != nil || v.Int() != -7 {
		t.Fatalf("Parse(' -7 ') = %v, %v", v, err)
	}
	if _, err := Int.Parse("4.5"); err == nil {
		t.Error("Parse('4.5') as int should fail")
	}
	v, err = Int.Parse("NA")
	if err != nil || !v.IsNull() || v.Domain() != Int {
		t.Fatalf("Parse(NA) = %v, %v", v, err)
	}
}

func TestParseFloatBoolDatetime(t *testing.T) {
	v, err := Float.Parse("3.25")
	if err != nil || v.Float() != 3.25 {
		t.Fatalf("float parse: %v %v", v, err)
	}
	for s, want := range map[string]bool{"true": true, "T": true, "FALSE": false, "f": false} {
		v, err := Bool.Parse(s)
		if err != nil || v.Bool() != want {
			t.Errorf("bool parse %q = %v, %v", s, v, err)
		}
	}
	v, err = Datetime.Parse("2020-06-02")
	if err != nil {
		t.Fatalf("datetime parse: %v", err)
	}
	if got := v.Time().UTC().Format("2006-01-02"); got != "2020-06-02" {
		t.Errorf("datetime = %s", got)
	}
	if _, err := Datetime.Parse("not a date"); err == nil {
		t.Error("bad datetime should fail")
	}
}

func TestParseMembership(t *testing.T) {
	member := func(d Domain, s string) bool {
		_, err := d.Parse(s)
		return err == nil
	}
	if !member(Int, "10") || member(Int, "ten") {
		t.Error("Int membership wrong")
	}
	if !member(Float, "10") { // ints parse as floats
		t.Error("Float does not accept 10")
	}
	// Null literals are members of every domain.
	for _, d := range []Domain{Object, Int, Float, Bool, Category, Datetime} {
		if !member(d, "NA") {
			t.Errorf("%v does not accept NA", d)
		}
	}
}

func TestValueZeroIsObjectNull(t *testing.T) {
	var v Value
	if !v.IsNull() || v.Domain() != Object {
		t.Errorf("zero Value = %v domain %v", v, v.Domain())
	}
}

func TestFloatNaNBecomesNull(t *testing.T) {
	v := FloatValue(math.NaN())
	if !v.IsNull() || v.Domain() != Float {
		t.Errorf("FloatValue(NaN) = %#v", v)
	}
}

func TestValueFloatCoercion(t *testing.T) {
	if IntValue(3).Float() != 3 {
		t.Error("int→float")
	}
	if BoolValue(true).Float() != 1 || BoolValue(false).Float() != 0 {
		t.Error("bool→float")
	}
	if !math.IsNaN(Null().Float()) {
		t.Error("null→float should be NaN")
	}
	if !math.IsNaN(String("x").Float()) {
		t.Error("string→float should be NaN")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NA":    Null(),
		"hi":    String("hi"),
		"42":    IntValue(42),
		"1.5":   FloatValue(1.5),
		"true":  BoolValue(true),
		"false": BoolValue(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%#v.String() = %q, want %q", v, got, want)
		}
	}
	dt := DatetimeValue(time.Date(2020, 6, 2, 12, 0, 0, 0, time.UTC))
	if got := dt.String(); got != "2020-06-02 12:00:00" {
		t.Errorf("datetime string = %q", got)
	}
}

func TestEqualCrossDomainNumeric(t *testing.T) {
	if !IntValue(3).Equal(FloatValue(3)) {
		t.Error("3 (int) should equal 3.0 (float)")
	}
	if IntValue(3).Equal(FloatValue(3.5)) {
		t.Error("3 != 3.5")
	}
	if IntValue(3).Equal(String("3")) {
		t.Error("int 3 should not equal string \"3\"")
	}
	if !Null().Equal(NullValue(Int)) {
		t.Error("nulls compare equal across domains (grouping semantics)")
	}
	if Null().Equal(IntValue(0)) {
		t.Error("null != 0")
	}
}

func TestKeyAgreesWithEqual(t *testing.T) {
	pairs := []struct {
		a, b Value
	}{
		{IntValue(3), FloatValue(3)},
		{BoolValue(true), IntValue(1)},
		{Null(), NullValue(Float)},
	}
	for _, p := range pairs {
		if p.a.Equal(p.b) != (p.a.Key() == p.b.Key()) {
			t.Errorf("Equal/Key disagree for %v vs %v", p.a, p.b)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	if IntValue(1).Compare(IntValue(2)) != -1 {
		t.Error("1 < 2")
	}
	if FloatValue(2.5).Compare(IntValue(2)) != 1 {
		t.Error("2.5 > 2")
	}
	if Null().Compare(IntValue(-100)) != -1 {
		t.Error("null sorts first")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Error("string order")
	}
	if BoolValue(false).Compare(BoolValue(true)) != -1 {
		t.Error("false < true")
	}
}

func TestCompareProperties(t *testing.T) {
	// Antisymmetry and consistency with Equal, property-based.
	gen := func(kind uint8, i int64, f float64, s string) Value {
		switch kind % 5 {
		case 0:
			return IntValue(i % 100)
		case 1:
			return FloatValue(float64(int(f*10) % 100)) // avoid NaN
		case 2:
			return String(s)
		case 3:
			return BoolValue(i%2 == 0)
		default:
			return Null()
		}
	}
	prop := func(k1 uint8, i1 int64, f1 float64, s1 string, k2 uint8, i2 int64, f2 float64, s2 string) bool {
		a, b := gen(k1, i1, f1, s1), gen(k2, i2, f2, s2)
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		if a.Equal(b) && a.Compare(b) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitivityProperty(t *testing.T) {
	prop := func(a, b, c int64, fa, fb, fc float64) bool {
		vals := []Value{IntValue(a), FloatValue(fb), IntValue(c), FloatValue(fa), IntValue(b), FloatValue(fc)}
		for _, x := range vals {
			for _, y := range vals {
				for _, z := range vals {
					if x.Compare(y) <= 0 && y.Compare(z) <= 0 && x.Compare(z) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromGoRoundTrip(t *testing.T) {
	if FromGo(5).Domain() != Int || FromGo(5).Int() != 5 {
		t.Error("FromGo(int)")
	}
	if FromGo("x").Str() != "x" {
		t.Error("FromGo(string)")
	}
	if FromGo(nil).IsNull() != true {
		t.Error("FromGo(nil)")
	}
	if FromGo(2.5).Float() != 2.5 {
		t.Error("FromGo(float)")
	}
	if FromGo(true).Bool() != true {
		t.Error("FromGo(bool)")
	}
	v := FromGo(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC))
	if v.Domain() != Datetime {
		t.Error("FromGo(time)")
	}
	if FromGo(IntValue(9)).Int() != 9 {
		t.Error("FromGo(Value) passthrough")
	}
}

func TestInterface(t *testing.T) {
	if IntValue(4).Interface().(int64) != 4 {
		t.Error("interface int")
	}
	if Null().Interface() != nil {
		t.Error("interface null")
	}
	if String("s").Interface().(string) != "s" {
		t.Error("interface string")
	}
}

func TestCompositeValue(t *testing.T) {
	payload := &struct{ X int }{X: 7}
	v := CompositeValue(payload)
	if v.Domain() != Composite || v.IsNull() {
		t.Fatalf("composite value = %#v", v)
	}
	if got := v.CompositePayload(); got != payload {
		t.Errorf("payload = %v", got)
	}
	if IntValue(1).CompositePayload() != nil {
		t.Error("non-composite payload should be nil")
	}
	if NullValue(Composite).CompositePayload() != nil {
		t.Error("null composite payload should be nil")
	}
}

func TestParseRoundTripProperty(t *testing.T) {
	// For every non-null value, rendering then parsing in the same domain
	// recovers an equal value (the Σ* representation is faithful).
	prop := func(i int64, f float64, s string, b bool) bool {
		vals := []Value{IntValue(i), BoolValue(b), String(s)}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, FloatValue(f))
		}
		for _, v := range vals {
			if IsNullLiteral(v.String()) {
				continue // strings spelling null round-trip to null by design
			}
			parsed, err := v.Domain().Parse(v.String())
			if err != nil || !parsed.Equal(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
