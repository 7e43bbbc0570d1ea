package vector

import (
	"math"

	"repro/internal/types"
)

// Object is a vector over Σ*: raw, uninterpreted strings. It is the storage
// form of the paper's Amn array before any parsing function is applied.
type Object struct {
	data  []string
	nulls []bool // nil means no nulls
}

// NewObject wraps the given data (and optional null mask) as an Object
// vector. The slices are not copied.
func NewObject(data []string, nulls []bool) *Object { return &Object{data: data, nulls: nulls} }

// NewObjectFromStrings builds an Object vector, treating null literals
// ("", "NA", ...) as nulls.
func NewObjectFromStrings(data []string) *Object {
	var nulls []bool
	for i, s := range data {
		if types.IsNullLiteral(s) {
			if nulls == nil {
				nulls = make([]bool, len(data))
			}
			nulls[i] = true
		}
	}
	return &Object{data: data, nulls: nulls}
}

// Len returns the number of entries.
func (v *Object) Len() int { return len(v.data) }

// Domain returns types.Object.
func (v *Object) Domain() types.Domain { return types.Object }

// IsNull reports whether entry i is null.
func (v *Object) IsNull(i int) bool { return v.nulls != nil && v.nulls[i] }

// Value returns entry i.
func (v *Object) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Object)
	}
	return types.String(v.data[i])
}

// Raw returns the raw string payload of entry i, even when null.
func (v *Object) Raw(i int) string { return v.data[i] }

// RawData exposes the backing string slice for bulk scans (schema induction,
// parsing). Callers must not mutate it.
func (v *Object) RawData() []string { return v.data }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Object) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Object{data: v.data[lo:hi], nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Object) Take(idx []int) Vector { return take(v, idx) }

// Int is a vector in the int domain.
type Int struct {
	data  []int64
	nulls []bool
}

// NewInt wraps data (and optional null mask) as an Int vector.
func NewInt(data []int64, nulls []bool) *Int { return &Int{data: data, nulls: nulls} }

// Len returns the number of entries.
func (v *Int) Len() int { return len(v.data) }

// Domain returns types.Int.
func (v *Int) Domain() types.Domain { return types.Int }

// IsNull reports whether entry i is null.
func (v *Int) IsNull(i int) bool { return v.nulls != nil && v.nulls[i] }

// Value returns entry i.
func (v *Int) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Int)
	}
	return types.IntValue(v.data[i])
}

// RawData exposes the backing slice for bulk kernels. Callers must not
// mutate it.
func (v *Int) RawData() []int64 { return v.data }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Int) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Int{data: v.data[lo:hi], nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Int) Take(idx []int) Vector { return take(v, idx) }

// Float is a vector in the float domain.
type Float struct {
	data  []float64
	nulls []bool
}

// NewFloat wraps data (and optional null mask) as a Float vector.
func NewFloat(data []float64, nulls []bool) *Float { return &Float{data: data, nulls: nulls} }

// Len returns the number of entries.
func (v *Float) Len() int { return len(v.data) }

// Domain returns types.Float.
func (v *Float) Domain() types.Domain { return types.Float }

// IsNull reports whether entry i is null. A NaN payload reads as null even
// without a mask bit, matching Value's canonicalization (types.FloatValue
// maps NaN to the Float null) so IsNull(i) always agrees with
// Value(i).IsNull().
func (v *Float) IsNull(i int) bool {
	return (v.nulls != nil && v.nulls[i]) || math.IsNaN(v.data[i])
}

// Value returns entry i.
func (v *Float) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Float)
	}
	return types.FloatValue(v.data[i])
}

// RawData exposes the backing slice for bulk kernels. Callers must not
// mutate it.
func (v *Float) RawData() []float64 { return v.data }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Float) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Float{data: v.data[lo:hi], nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Float) Take(idx []int) Vector { return take(v, idx) }

// Bool is a vector in the bool domain.
type Bool struct {
	data  []bool
	nulls []bool
}

// NewBool wraps data (and optional null mask) as a Bool vector.
func NewBool(data []bool, nulls []bool) *Bool { return &Bool{data: data, nulls: nulls} }

// Len returns the number of entries.
func (v *Bool) Len() int { return len(v.data) }

// Domain returns types.Bool.
func (v *Bool) Domain() types.Domain { return types.Bool }

// IsNull reports whether entry i is null.
func (v *Bool) IsNull(i int) bool { return v.nulls != nil && v.nulls[i] }

// Value returns entry i.
func (v *Bool) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Bool)
	}
	return types.BoolValue(v.data[i])
}

// RawData exposes the backing slice for bulk kernels. Callers must not
// mutate it.
func (v *Bool) RawData() []bool { return v.data }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Bool) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Bool{data: v.data[lo:hi], nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Bool) Take(idx []int) Vector { return take(v, idx) }

// Datetime is a vector of timestamps stored as Unix nanoseconds.
type Datetime struct {
	data  []int64
	nulls []bool
}

// NewDatetime wraps Unix-nanosecond data (and optional null mask) as a
// Datetime vector.
func NewDatetime(data []int64, nulls []bool) *Datetime { return &Datetime{data: data, nulls: nulls} }

// Len returns the number of entries.
func (v *Datetime) Len() int { return len(v.data) }

// Domain returns types.Datetime.
func (v *Datetime) Domain() types.Domain { return types.Datetime }

// IsNull reports whether entry i is null.
func (v *Datetime) IsNull(i int) bool { return v.nulls != nil && v.nulls[i] }

// Value returns entry i.
func (v *Datetime) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Datetime)
	}
	return types.DatetimeFromNanos(v.data[i])
}

// RawData exposes the backing slice for bulk kernels. Callers must not
// mutate it.
func (v *Datetime) RawData() []int64 { return v.data }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Datetime) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Datetime{data: v.data[lo:hi], nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Datetime) Take(idx []int) Vector { return take(v, idx) }

// Dict is a dictionary-encoded vector in the category domain: each entry is
// a code into a shared dictionary of distinct strings.
type Dict struct {
	codes []int32
	dict  []string
	nulls []bool
}

// NewDict wraps codes (indices into dict) and a dictionary as a category
// vector.
func NewDict(codes []int32, dict []string, nulls []bool) *Dict {
	return &Dict{codes: codes, dict: dict, nulls: nulls}
}

// NewDictFromStrings dictionary-encodes the given strings.
func NewDictFromStrings(data []string) *Dict {
	codes := make([]int32, len(data))
	index := make(map[string]int32)
	var dict []string
	var nulls []bool
	for i, s := range data {
		if types.IsNullLiteral(s) {
			if nulls == nil {
				nulls = make([]bool, len(data))
			}
			nulls[i] = true
			continue
		}
		c, ok := index[s]
		if !ok {
			c = int32(len(dict))
			dict = append(dict, s)
			index[s] = c
		}
		codes[i] = c
	}
	return &Dict{codes: codes, dict: dict, nulls: nulls}
}

// Len returns the number of entries.
func (v *Dict) Len() int { return len(v.codes) }

// Domain returns types.Category.
func (v *Dict) Domain() types.Domain { return types.Category }

// IsNull reports whether entry i is null.
func (v *Dict) IsNull(i int) bool { return v.nulls != nil && v.nulls[i] }

// Value returns entry i.
func (v *Dict) Value(i int) types.Value {
	if v.IsNull(i) {
		return types.NullValue(types.Category)
	}
	return types.CategoryValue(v.dict[v.codes[i]])
}

// Categories returns the dictionary of distinct category labels.
func (v *Dict) Categories() []string { return v.dict }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Dict) Slice(lo, hi int) Vector {
	checkSlice(len(v.codes), lo, hi)
	return &Dict{codes: v.codes[lo:hi], dict: v.dict, nulls: sliceNulls(v.nulls, lo, hi)}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Dict) Take(idx []int) Vector { return take(v, idx) }

// NullCount returns the number of null entries, scanning only the null
// mask (zero when the vector has none).
func (v *Object) NullCount() int { return countMask(v.nulls) }

// NullCount returns the number of null entries, scanning only the null
// mask (zero when the vector has none).
func (v *Int) NullCount() int { return countMask(v.nulls) }

// NullCount returns the number of null entries directly from storage
// (mask bits plus unmasked NaN payloads, which read as null).
func (v *Float) NullCount() int {
	n := 0
	for i, x := range v.data {
		if (v.nulls != nil && v.nulls[i]) || math.IsNaN(x) {
			n++
		}
	}
	return n
}

// NullCount returns the number of null entries, scanning only the null
// mask (zero when the vector has none).
func (v *Bool) NullCount() int { return countMask(v.nulls) }

// NullCount returns the number of null entries, scanning only the null
// mask (zero when the vector has none).
func (v *Datetime) NullCount() int { return countMask(v.nulls) }

// NullCount returns the number of null entries, scanning only the null
// mask (zero when the vector has none).
func (v *Dict) NullCount() int { return countMask(v.nulls) }
