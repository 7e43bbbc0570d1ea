package vector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/types"
)

// Columnar wire format: typed storage serialized as length-prefixed raw
// little-endian buffers, straight from the vectors' backing arrays — no
// per-cell boxing anywhere. core.EncodeFrame builds the frame block on it:
// what the cluster ships between processes and the storage layer spills.
//
// Layout per vector:
//
//	u8  kind           (wireObject..wireDict)
//	u32 n              (row count)
//	u8  hasNulls       followed, when 1, by ceil(n/8) bitmap bytes
//	payload            (kind-specific, see below)
//
// Payloads: Int/Datetime are n×8 bytes of little-endian int64; Float is
// n×8 bytes of IEEE-754 bits; Bool is n bytes; Object is a string table
// (u32 total byte length, n×u32 cell lengths, concatenated bytes); Dict is
// n×4 little-endian int32 codes followed by the category table encoded as
// a string table. Views are materialized before encoding, so decoded
// vectors always own flat storage.

const (
	wireObject = iota
	wireInt
	wireFloat
	wireBool
	wireDatetime
	wireDict
)

// ErrNoWireForm reports a vector the wire format cannot carry.
var ErrNoWireForm = errors.New("vector: no wire form")

// AppendWire serializes v onto buf and returns the extended buffer.
// Composite (Any) vectors have no raw representation and are rejected with
// ErrNoWireForm — callers keep such frames in process and in memory.
func AppendWire(buf []byte, v Vector) ([]byte, error) {
	v = Materialize(v)
	n := v.Len()
	switch t := v.(type) {
	case *Object:
		buf = wireHeader(buf, wireObject, n, t.nulls)
		return appendStringTable(buf, t.data), nil
	case *Int:
		buf = wireHeader(buf, wireInt, n, t.nulls)
		return appendInt64s(buf, t.data), nil
	case *Datetime:
		buf = wireHeader(buf, wireDatetime, n, t.nulls)
		return appendInt64s(buf, t.data), nil
	case *Float:
		buf = wireHeader(buf, wireFloat, n, t.nulls)
		for _, f := range t.data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		}
		return buf, nil
	case *Bool:
		buf = wireHeader(buf, wireBool, n, t.nulls)
		for _, b := range t.data {
			buf = append(buf, boolByte(b))
		}
		return buf, nil
	case *Dict:
		buf = wireHeader(buf, wireDict, n, t.nulls)
		for _, c := range t.codes {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
		}
		return appendStringTable(buf, t.dict), nil
	default:
		return nil, fmt.Errorf("%w for %T (domain %v)", ErrNoWireForm, v, v.Domain())
	}
}

// DecodeWire decodes one vector off buf, returning it and the remaining
// bytes. Decoded vectors own their storage (nothing aliases buf except
// string bytes, which are immutable copies).
func DecodeWire(buf []byte) (Vector, []byte, error) {
	if len(buf) < 6 {
		return nil, nil, fmt.Errorf("vector: wire truncated (header)")
	}
	kind := buf[0]
	n := int(binary.LittleEndian.Uint32(buf[1:5]))
	hasNulls := buf[5] == 1
	buf = buf[6:]
	var nulls []bool
	if hasNulls {
		nb := (n + 7) / 8
		if len(buf) < nb {
			return nil, nil, fmt.Errorf("vector: wire truncated (null bitmap)")
		}
		nulls = make([]bool, n)
		for i := 0; i < n; i++ {
			nulls[i] = buf[i/8]&(1<<(i%8)) != 0
		}
		buf = buf[nb:]
	}
	switch kind {
	case wireObject:
		data, rest, err := decodeStringTable(buf, n)
		if err != nil {
			return nil, nil, err
		}
		return &Object{data: data, nulls: nulls}, rest, nil
	case wireInt, wireDatetime:
		data, rest, err := decodeInt64s(buf, n)
		if err != nil {
			return nil, nil, err
		}
		if kind == wireInt {
			return &Int{data: data, nulls: nulls}, rest, nil
		}
		return &Datetime{data: data, nulls: nulls}, rest, nil
	case wireFloat:
		if len(buf) < n*8 {
			return nil, nil, fmt.Errorf("vector: wire truncated (float data)")
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		return &Float{data: data, nulls: nulls}, buf[n*8:], nil
	case wireBool:
		if len(buf) < n {
			return nil, nil, fmt.Errorf("vector: wire truncated (bool data)")
		}
		data := make([]bool, n)
		for i := range data {
			data[i] = buf[i] == 1
		}
		return &Bool{data: data, nulls: nulls}, buf[n:], nil
	case wireDict:
		if len(buf) < n*4 {
			return nil, nil, fmt.Errorf("vector: wire truncated (dict codes)")
		}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		dict, rest, err := decodeStringTable(buf[n*4:], -1)
		if err != nil {
			return nil, nil, err
		}
		return &Dict{codes: codes, dict: dict, nulls: nulls}, rest, nil
	default:
		return nil, nil, fmt.Errorf("vector: unknown wire kind %d", kind)
	}
}

// wireHeader appends the kind byte, row count, and null bitmap.
func wireHeader(buf []byte, kind byte, n int, nulls []bool) []byte {
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	if nulls == nil {
		return append(buf, 0)
	}
	buf = append(buf, 1)
	nb := (n + 7) / 8
	start := len(buf)
	buf = append(buf, make([]byte, nb)...)
	for i, isNull := range nulls {
		if isNull {
			buf[start+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

func appendInt64s(buf []byte, data []int64) []byte {
	for _, x := range data {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	return buf
}

func decodeInt64s(buf []byte, n int) ([]int64, []byte, error) {
	if len(buf) < n*8 {
		return nil, nil, fmt.Errorf("vector: wire truncated (int data)")
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return data, buf[n*8:], nil
}

// appendStringTable encodes a string slice: u32 count, u32 total bytes,
// n×u32 lengths, concatenated bytes.
func appendStringTable(buf []byte, data []string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	total := 0
	for _, s := range data {
		total += len(s)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	for _, s := range data {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	}
	for _, s := range data {
		buf = append(buf, s...)
	}
	return buf
}

// decodeStringTable decodes a string table; want >= 0 additionally checks
// the declared count.
func decodeStringTable(buf []byte, want int) ([]string, []byte, error) {
	if len(buf) < 8 {
		return nil, nil, fmt.Errorf("vector: wire truncated (string table header)")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	total := int(binary.LittleEndian.Uint32(buf[4:]))
	buf = buf[8:]
	if want >= 0 && n != want {
		return nil, nil, fmt.Errorf("vector: string table has %d cells, want %d", n, want)
	}
	if len(buf) < n*4+total {
		return nil, nil, fmt.Errorf("vector: wire truncated (string table)")
	}
	lens := make([]int, n)
	sum := 0
	for i := range lens {
		lens[i] = int(binary.LittleEndian.Uint32(buf[i*4:]))
		sum += lens[i]
	}
	if sum != total {
		return nil, nil, fmt.Errorf("vector: string table lengths sum %d, declared %d", sum, total)
	}
	buf = buf[n*4:]
	// One copy detaches every cell from the wire buffer.
	blob := string(buf[:total])
	data := make([]string, n)
	off := 0
	for i, l := range lens {
		data[i] = blob[off : off+l]
		off += l
	}
	return data, buf[total:], nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Clone deep-copies v's storage so the result shares nothing with v's
// backing arrays. Views are materialized (already a copy); flat vectors
// copy data and null masks. Dict clones share the immutable category
// table. Spill-aware shuffles clone routed slice pieces so a piece stops
// pinning the band it was sliced from.
func Clone(v Vector) Vector {
	m := Materialize(v)
	if m != v {
		return m // materialization already produced owned storage
	}
	switch t := v.(type) {
	case *Object:
		return &Object{data: append([]string(nil), t.data...), nulls: cloneMask(t.nulls)}
	case *Int:
		return &Int{data: append([]int64(nil), t.data...), nulls: cloneMask(t.nulls)}
	case *Float:
		return &Float{data: append([]float64(nil), t.data...), nulls: cloneMask(t.nulls)}
	case *Bool:
		return &Bool{data: append([]bool(nil), t.data...), nulls: cloneMask(t.nulls)}
	case *Datetime:
		return &Datetime{data: append([]int64(nil), t.data...), nulls: cloneMask(t.nulls)}
	case *Dict:
		return &Dict{codes: append([]int32(nil), t.codes...), dict: t.dict, nulls: cloneMask(t.nulls)}
	case *Any:
		return &Any{data: append([]types.Value(nil), t.data...)}
	default:
		return v
	}
}

func cloneMask(nulls []bool) []bool {
	if nulls == nil {
		return nil
	}
	return append([]bool(nil), nulls...)
}
