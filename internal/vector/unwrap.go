package vector

import (
	"math"

	"repro/internal/types"
)

// This file exposes typed storage through at most one level of selection
// view. The shuffle partition phase routes rows with zero-copy views
// (TakeView), which hides the concrete column type from the downstream
// typed kernels that need the raw slices back without materializing: the
// GROUPBY kernel's key codes and aggregate columns, the restore of group
// order from carried positions, and schema induction. Each accessor returns
// the base storage plus an optional selection index: idx == nil means entry
// i reads storage position i; otherwise entry i reads position idx[i], and
// idx[i] < 0 means null (mirroring Take). A chunked vector, or a view over
// one, reads the chunk's flat copy (Chunked.flatten); a sequence (Range), or
// a view over one, its flat copy, made once (sequence.flatten).

// ObjectData returns the raw Σ* storage behind v when v is an *Object or a
// view of one, so schema induction reads routed or filtered raw columns
// without rendering a cell.
func ObjectData(v Vector) (data []string, nulls []bool, idx []int, ok bool) {
	base, idx := unview(v)
	if c, ok := base.(*Object); ok {
		return c.data, c.nulls, idx, true
	}
	return nil, nil, nil, false
}

// IntData returns the int64 storage behind v when v is an *Int or a view of
// one. The nulls mask (may be nil) indexes the base storage, not the view.
func IntData(v Vector) (data []int64, nulls []bool, idx []int, ok bool) {
	base, idx := unview(v)
	if c, ok := base.(*Int); ok {
		return c.data, c.nulls, idx, true
	}
	return nil, nil, nil, false
}

// FloatData returns the float64 storage behind v when v is a *Float or a
// view of one. Callers must treat NaN entries as null, like Float.Value.
func FloatData(v Vector) (data []float64, nulls []bool, idx []int, ok bool) {
	base, idx := unview(v)
	if c, ok := base.(*Float); ok {
		return c.data, c.nulls, idx, true
	}
	return nil, nil, nil, false
}

// DictData returns the code and dictionary storage behind v when v is a
// *Dict or a view of one. The returned dict slice is the category table
// itself. Unlike the other accessors it does not flatten a chunk: a chunk's
// Dict pieces may each hold their own table, and its callers, the keyed
// kernels, hash a chunk piece by piece instead (DictTableLen).
func DictData(v Vector) (codes []int32, dict []string, nulls []bool, idx []int, ok bool) {
	base := v
	if vw, viewed := v.(*view); viewed {
		base, idx = vw.base, vw.idx
	}
	if c, chunked := base.(*Chunked); chunked {
		if s := c.st.Load(); len(s.pieces) == 1 {
			base = s.pieces[0]
		}
	}
	if c, ok := base.(*Dict); ok {
		return c.codes, c.dict, c.nulls, idx, true
	}
	return nil, nil, nil, nil, false
}

// DictTableLen returns the length of the longest category table v reads —
// a Dict's, a view's base's, a chunk's pieces' — without flattening it, and
// 0 when v holds no Dict storage. Hash hashes a Dict's whole table once per
// call, so a caller hashing v a range of rows at a time keeps its ranges at
// least this long.
func DictTableLen(v Vector) int {
	if vw, ok := v.(*view); ok {
		v = vw.base
	}
	n := 0
	for _, p := range Pieces(v) {
		if vw, ok := p.(*view); ok {
			p = vw.base
		}
		if c, ok := p.(*Dict); ok {
			n = max(n, len(c.dict))
		}
	}
	return n
}

// sameDict reports whether two category tables are the same backing array,
// the precondition for concatenating codes without re-encoding.
func sameDict(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// MinMax scans v once and returns its minimum and maximum non-null values
// under types.Value.Compare. Both are null when v has no non-null entries.
// Typed vectors and chunks (flattened) compare on the storage slices; views
// and Composite fall back to boxed comparison.
func MinMax(v Vector) (types.Value, types.Value) {
	switch c := flat(v).(type) {
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
