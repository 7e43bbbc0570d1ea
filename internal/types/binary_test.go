package types

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// sameValue is Equal tightened to what a codec must preserve: Equal alone
// lets Object and Category values with the same string compare equal.
func sameValue(a, b Value) bool {
	return a.Domain() == b.Domain() && a.IsNull() == b.IsNull() && a.Equal(b)
}

// scalarSamples draws one non-null value per scalar domain plus every
// scalar null and the zero Value.
func scalarSamples(i int64, f float64, s string, b bool) []Value {
	vals := []Value{
		{}, String(s), CategoryValue(s), IntValue(i), FloatValue(f), BoolValue(b),
		DatetimeFromNanos(i), DatetimeValue(time.Unix(0, i)), FloatValue(math.NaN()),
	}
	for d := Object; d < Composite; d++ {
		vals = append(vals, NullValue(d))
	}
	return vals
}

// Every scalar value — each domain, null and non-null — must survive
// AppendBinary/DecodeValue exactly, consume exactly its own bytes, and
// survive the MarshalBinary/UnmarshalBinary pair gob uses.
func TestValueBinaryRoundTripProperty(t *testing.T) {
	prop := func(i int64, f float64, s string, b bool) bool {
		for _, v := range scalarSamples(i, f, s, b) {
			enc, err := v.AppendBinary([]byte("prefix"))
			if err != nil {
				t.Logf("encode %#v: %v", v, err)
				return false
			}
			got, rest, err := DecodeValue(append(enc[len("prefix"):], 0xAB))
			if err != nil || len(rest) != 1 || rest[0] != 0xAB || !sameValue(got, v) {
				t.Logf("decode %#v: got %#v rest=%v err=%v", v, got, rest, err)
				return false
			}
			bin, err := v.MarshalBinary()
			if err != nil || !bytes.Equal(bin, enc[len("prefix"):]) {
				t.Logf("MarshalBinary %#v = %v, %v; AppendBinary wrote %v", v, bin, err, enc)
				return false
			}
			var back Value
			if err := back.UnmarshalBinary(bin); err != nil || !sameValue(back, v) {
				t.Logf("UnmarshalBinary %#v: got %#v err=%v", v, back, err)
				return false
			}
			// Every strict prefix is truncated input.
			for n := 0; n < len(bin); n++ {
				if _, _, err := DecodeValue(bin[:n]); err == nil {
					t.Logf("decode accepted %d of %d bytes of %#v", n, len(bin), v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if got, _, err := DecodeValue([]byte{byte(Float), 0, 1, 0, 0, 0, 0, 0, 0xF8, 0x7F}); err != nil || !got.IsNull() || got.Domain() != Float {
		t.Errorf("NaN payload decoded to %#v, %v; want the Float null", got, err)
	}
}

// Composite values — null or not — and out-of-range domain bytes have no
// binary form, in either direction, and trailing bytes fail UnmarshalBinary.
func TestValueBinaryRejects(t *testing.T) {
	for _, v := range []Value{CompositeValue(&struct{}{}), NullValue(Composite)} {
		if _, err := v.MarshalBinary(); err == nil {
			t.Errorf("MarshalBinary(%#v) succeeded", v)
		}
		if err := gob.NewEncoder(new(bytes.Buffer)).Encode([]Value{IntValue(1), v}); err == nil {
			t.Errorf("gob encoded %#v", v)
		}
	}
	for d := 0; d < 256; d++ {
		if dom := Domain(d); dom >= Object && dom < Composite {
			continue
		}
		for _, null := range []byte{0, 1} {
			if _, _, err := DecodeValue([]byte{byte(d), null, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
				t.Errorf("decode accepted domain byte %d (null=%d)", d, null)
			}
		}
	}
	var v Value
	if err := v.UnmarshalBinary([]byte{byte(Bool), 0, 1, 9}); err == nil {
		t.Error("UnmarshalBinary accepted trailing bytes")
	}
}

// gob carries Values natively: in slices, and as struct fields where the
// zero Value is omitted and arrives as the zero Value.
func TestValueGobRoundTrip(t *testing.T) {
	type msg struct {
		Operand Value
		Zero    Value
		Tuples  [][]Value
	}
	want := msg{
		Operand: CategoryValue("c"),
		Tuples:  [][]Value{scalarSamples(-7, 2.5, "x,\"y\"\n", true), {Null()}},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(want); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got msg
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !sameValue(got.Operand, want.Operand) || got.Zero != (Value{}) || len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("got %#v", got)
	}
	for i, tuple := range want.Tuples {
		if len(got.Tuples[i]) != len(tuple) {
			t.Fatalf("tuple %d has %d values, want %d", i, len(got.Tuples[i]), len(tuple))
		}
		for k, v := range tuple {
			if !sameValue(got.Tuples[i][k], v) {
				t.Errorf("tuple %d value %d = %#v, want %#v", i, k, got.Tuples[i][k], v)
			}
		}
	}
}

// FuzzDecodeValue: arbitrary bytes are rejected or decoded, never panic;
// an accepted value re-encodes to bytes that decode to the same value.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range scalarSamples(1<<40, -0.5, "héllo", true) {
		enc, err := v.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
	}
	f.Add([]byte{byte(Composite), 0})
	f.Add([]byte{byte(Object), 0, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("decode returned %d remaining bytes of %d", len(rest), len(data))
		}
		enc, err := v.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted value %#v does not re-encode: %v", v, err)
		}
		back, tail, err := DecodeValue(enc)
		if err != nil || len(tail) != 0 || !sameValue(back, v) {
			t.Fatalf("re-encoded %#v decodes to %#v (tail %d, err %v)", v, back, len(tail), err)
		}
	})
}
