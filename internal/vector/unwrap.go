package vector

import (
	"math"

	"repro/internal/types"
)

// This file exposes typed storage through at most one level of selection
// view. The shuffle partition phase routes rows with zero-copy views
// (TakeView), which hides the concrete column type from downstream typed
// kernels — dictionary-aware grouping and the statistics collector need the
// raw slices back without materializing. Each accessor returns the base
// storage plus an optional selection index: idx == nil means entry i reads
// storage position i; otherwise entry i reads position idx[i], and idx[i] < 0
// means null (mirroring Take).

// ObjectData returns the raw Σ* storage behind v when v is an *Object or a
// view of one, so schema induction reads routed or filtered raw columns
// without rendering a cell.
func ObjectData(v Vector) (data []string, nulls []bool, idx []int, ok bool) {
	switch c := v.(type) {
	case *Object:
		return c.data, c.nulls, nil, true
	case *view:
		if b, bok := c.base.(*Object); bok {
			return b.data, b.nulls, c.idx, true
		}
	}
	return nil, nil, nil, false
}

// IntData returns the int64 storage behind v when v is an *Int or a view of
// one. The nulls mask (may be nil) indexes the base storage, not the view.
func IntData(v Vector) (data []int64, nulls []bool, idx []int, ok bool) {
	switch c := v.(type) {
	case *Int:
		return c.data, c.nulls, nil, true
	case *view:
		if b, bok := c.base.(*Int); bok {
			return b.data, b.nulls, c.idx, true
		}
	}
	return nil, nil, nil, false
}

// FloatData returns the float64 storage behind v when v is a *Float or a
// view of one. Callers must treat NaN entries as null, like Float.Value.
func FloatData(v Vector) (data []float64, nulls []bool, idx []int, ok bool) {
	switch c := v.(type) {
	case *Float:
		return c.data, c.nulls, nil, true
	case *view:
		if b, bok := c.base.(*Float); bok {
			return b.data, b.nulls, c.idx, true
		}
	}
	return nil, nil, nil, false
}

// DictData returns the code and dictionary storage behind v when v is a
// *Dict or a view of one. The returned dict slice is the shared category
// table itself — SameDict on two results detects columns that can be grouped
// or joined directly on int32 codes.
func DictData(v Vector) (codes []int32, dict []string, nulls []bool, idx []int, ok bool) {
	switch c := v.(type) {
	case *Dict:
		return c.codes, c.dict, c.nulls, nil, true
	case *view:
		if b, bok := c.base.(*Dict); bok {
			return b.codes, b.dict, b.nulls, c.idx, true
		}
	}
	return nil, nil, nil, nil, false
}

// SameDict reports whether two category tables are the same backing array,
// the precondition for grouping on raw codes across columns.
func SameDict(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// MinMax scans v once and returns its minimum and maximum non-null values
// under types.Value.Compare. Both are null when v has no non-null entries.
// Typed vectors compare on the storage slices; views and Composite fall back
// to boxed comparison.
func MinMax(v Vector) (types.Value, types.Value) {
	switch c := v.(type) {
	case *Int:
		return minMaxInt64(c.data, c.nulls, types.Int, types.IntValue)
	case *Datetime:
		return minMaxInt64(c.data, c.nulls, types.Datetime, types.DatetimeFromNanos)
	case *Float:
		lo, hi := math.Inf(1), math.Inf(-1)
		seen := false
		for i, x := range c.data {
			if (c.nulls != nil && c.nulls[i]) || math.IsNaN(x) {
				continue
			}
			if !seen || x < lo {
				lo = x
			}
			if !seen || x > hi {
				hi = x
			}
			seen = true
		}
		if !seen {
			return types.NullValue(types.Float), types.NullValue(types.Float)
		}
		return types.FloatValue(lo), types.FloatValue(hi)
	case *Object:
		return minMaxStrings(c.data, c.nulls, types.Object)
	case *Dict:
		lo, hi := "", ""
		seen := false
		for i, code := range c.codes {
			if c.nulls != nil && c.nulls[i] {
				continue
			}
			s := c.dict[code]
			if !seen || s < lo {
				lo = s
			}
			if !seen || s > hi {
				hi = s
			}
			seen = true
		}
		if !seen {
			return types.NullValue(types.Category), types.NullValue(types.Category)
		}
		return types.CategoryValue(lo), types.CategoryValue(hi)
	default:
		lo, hi := types.NullValue(v.Domain()), types.NullValue(v.Domain())
		for i := 0; i < v.Len(); i++ {
			if v.IsNull(i) {
				continue
			}
			val := v.Value(i)
			if lo.IsNull() || val.Less(lo) {
				lo = val
			}
			if hi.IsNull() || hi.Less(val) {
				hi = val
			}
		}
		return lo, hi
	}
}

func minMaxInt64(data []int64, nulls []bool, d types.Domain, box func(int64) types.Value) (types.Value, types.Value) {
	var lo, hi int64
	seen := false
	for i, x := range data {
		if nulls != nil && nulls[i] {
			continue
		}
		if !seen || x < lo {
			lo = x
		}
		if !seen || x > hi {
			hi = x
		}
		seen = true
	}
	if !seen {
		return types.NullValue(d), types.NullValue(d)
	}
	return box(lo), box(hi)
}

func minMaxStrings(data []string, nulls []bool, d types.Domain) (types.Value, types.Value) {
	lo, hi := "", ""
	seen := false
	for i, s := range data {
		if nulls != nil && nulls[i] {
			continue
		}
		if !seen || s < lo {
			lo = s
		}
		if !seen || s > hi {
			hi = s
		}
		seen = true
	}
	if !seen {
		return types.NullValue(d), types.NullValue(d)
	}
	if d == types.Category {
		return types.CategoryValue(lo), types.CategoryValue(hi)
	}
	return types.String(lo), types.String(hi)
}
