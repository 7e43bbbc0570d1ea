package vector

import (
	"strings"

	"repro/internal/types"
)

// Cell comparison kernels for range-shuffle routing and for sort keys with no
// word form (sortkey.go): ordering two cells without boxing them into
// types.Value. Both functions implement exactly the ordering of
// types.Value.Compare — nulls first, numerics by magnitude across domains,
// strings lexicographically — so switching a sort from Value(i).Compare to
// these kernels cannot reorder anything.

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpBool(a, b bool) int {
	switch {
	case !a && b:
		return -1
	case a && !b:
		return 1
	}
	return 0
}

// CompareRows orders entry i of a against entry j of b: -1, 0 or +1. The
// common same-representation cases compare on the storage slices (a chunk's
// piece); everything else falls back to the boxed comparison.
func CompareRows(a Vector, i int, b Vector, j int) int {
	if c, ok := a.(*Chunked); ok {
		a, i = c.at(i)
	}
	if c, ok := b.(*Chunked); ok {
		b, j = c.at(j)
	}
	an, bn := a.IsNull(i), b.IsNull(j)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	}
	switch ca := a.(type) {
	case *Int:
		switch cb := b.(type) {
		case *Int:
			return cmpInt64(ca.data[i], cb.data[j])
		case *Float:
			return cmpFloat64(float64(ca.data[i]), cb.data[j])
		}
	case *Float:
		switch cb := b.(type) {
		case *Float:
			return cmpFloat64(ca.data[i], cb.data[j])
		case *Int:
			return cmpFloat64(ca.data[i], float64(cb.data[j]))
		}
	case *Bool:
		if cb, ok := b.(*Bool); ok {
			return cmpBool(ca.data[i], cb.data[j])
		}
	case *Datetime:
		if cb, ok := b.(*Datetime); ok {
			return cmpInt64(ca.data[i], cb.data[j])
		}
	case *Object:
		switch cb := b.(type) {
		case *Object:
			return strings.Compare(ca.data[i], cb.data[j])
		case *Dict:
			return strings.Compare(ca.data[i], cb.dict[cb.codes[j]])
		}
	case *Dict:
		switch cb := b.(type) {
		case *Dict:
			return strings.Compare(ca.dict[ca.codes[i]], cb.dict[cb.codes[j]])
		case *Object:
			return strings.Compare(ca.dict[ca.codes[i]], cb.data[j])
		}
	}
	return a.Value(i).Compare(b.Value(j))
}

// CompareRowValue orders entry i of v against the boxed value val. It is
// the mixed form used when one side is already boxed (range bounds, sort
// samples) and the other side is a storage row.
func CompareRowValue(v Vector, i int, val types.Value) int {
	if c, ok := v.(*Chunked); ok {
		v, i = c.at(i)
	}
	vn, on := v.IsNull(i), val.IsNull()
	switch {
	case vn && on:
		return 0
	case vn:
		return -1
	case on:
		return 1
	}
	switch c := v.(type) {
	case *Int:
		switch val.Domain() {
		case types.Int:
			return cmpInt64(c.data[i], val.Int())
		case types.Float, types.Bool:
			return cmpFloat64(float64(c.data[i]), val.Float())
		}
	case *Float:
		if val.Domain().Numeric() {
			return cmpFloat64(c.data[i], val.Float())
		}
	case *Bool:
		if val.Domain() == types.Bool {
			return cmpBool(c.data[i], val.Bool())
		}
		if val.Domain().Numeric() {
			f := 0.0
			if c.data[i] {
				f = 1
			}
			return cmpFloat64(f, val.Float())
		}
	case *Datetime:
		if val.Domain() == types.Datetime {
			return cmpInt64(c.data[i], val.Int())
		}
	case *Object:
		if d := val.Domain(); d == types.Object || d == types.Category {
			return strings.Compare(c.data[i], val.Str())
		}
	case *Dict:
		if d := val.Domain(); d == types.Object || d == types.Category {
			return strings.Compare(c.dict[c.codes[i]], val.Str())
		}
	}
	return v.Value(i).Compare(val)
}
