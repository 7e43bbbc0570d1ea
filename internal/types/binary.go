package types

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary form of a scalar Value — the one serial form every layer shares
// (block column labels, and through MarshalBinary every gob control message
// that carries a plan operand, key exemplar or sort bound):
//
//	u8 domain · u8 null · payload
//
// with a u32-length-prefixed string for Object/Category, a little-endian
// u64 for Int/Datetime/Float bits, one byte for Bool, and no payload for a
// null. Composite values hold an in-process payload and have no binary
// form; encoding one is an error, so plans producing them stay local.

// scalar reports whether values of d have a binary form.
func scalar(d Domain) bool { return d.Valid() && d != Composite }

// AppendBinary appends v's binary form to buf and returns the extended
// buffer.
func (v Value) AppendBinary(buf []byte) ([]byte, error) {
	d := v.Domain()
	if !scalar(d) {
		return nil, fmt.Errorf("types: no binary form for %v value", d)
	}
	if v.IsNull() {
		return append(buf, byte(d), 1), nil
	}
	buf = append(buf, byte(d), 0)
	switch d {
	case Object, Category:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.s)))
		return append(buf, v.s...), nil
	case Float:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.f)), nil
	case Bool:
		if v.b {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	default: // Int, Datetime
		return binary.LittleEndian.AppendUint64(buf, uint64(v.i)), nil
	}
}

// DecodeValue decodes one value off buf, returning it and the remaining
// bytes. Truncated input and domain bytes outside the scalar domains are
// errors.
func DecodeValue(buf []byte) (Value, []byte, error) {
	if len(buf) < 2 {
		return Value{}, nil, fmt.Errorf("types: value truncated")
	}
	d, isNull := Domain(buf[0]), buf[1] == 1
	buf = buf[2:]
	if !scalar(d) {
		return Value{}, nil, fmt.Errorf("types: no binary form for value domain %d", d)
	}
	if isNull {
		return NullValue(d), buf, nil
	}
	switch d {
	case Object, Category:
		if len(buf) < 4 {
			return Value{}, nil, fmt.Errorf("types: value truncated (string length)")
		}
		l := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < l {
			return Value{}, nil, fmt.Errorf("types: value truncated (string)")
		}
		return Value{dom: d, s: string(buf[:l])}, buf[l:], nil
	case Bool:
		if len(buf) < 1 {
			return Value{}, nil, fmt.Errorf("types: value truncated (bool)")
		}
		return BoolValue(buf[0] == 1), buf[1:], nil
	}
	if len(buf) < 8 {
		return Value{}, nil, fmt.Errorf("types: value truncated (%v)", d)
	}
	x := binary.LittleEndian.Uint64(buf)
	if d == Float {
		return FloatValue(math.Float64frombits(x)), buf[8:], nil
	}
	return Value{dom: d, i: int64(x)}, buf[8:], nil // Int, Datetime
}

// MarshalBinary implements encoding.BinaryMarshaler, which is what lets
// encoding/gob carry a Value (and any spec holding one) natively.
func (v Value) MarshalBinary() ([]byte, error) {
	// 10 = the two header bytes plus the widest fixed payload.
	return v.AppendBinary(make([]byte, 0, 10+len(v.s)))
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Value) UnmarshalBinary(data []byte) error {
	got, rest, err := DecodeValue(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("types: %d trailing bytes after value", len(rest))
	}
	*v = got
	return nil
}
