package vector

import "repro/internal/types"

// Transpose writes the len(dst) rows of cols into dst as vectors of
// len(cols) entries each — dst[i] holds row i of every column, in column
// order — when every column stores the one kind d names (Int, Float, Bool,
// Datetime or Object), flat, through a selection view or as the pieces of a
// chunk; it reports false, writing nothing, for any other storage (Dict,
// Composite, mixed kinds) and for no columns. Nothing is boxed: the outputs
// are cut from one backing array and, when a cell is null, one null mask,
// each output taking the next len(cols) entries, so an output vector pins
// the whole array. Cells are copied as stored: a Float NaN stays NaN (a
// null, as Float.Value reads it) and -0 keeps its sign.
func Transpose(dst, cols []Vector, d types.Domain) bool {
	if len(cols) == 0 {
		return false
	}
	switch d {
	case types.Int:
		return transposeAs(dst, cols, IntData, func(data []int64, nulls []bool) Int { return Int{data, nulls} })
	case types.Float:
		return transposeAs(dst, cols, FloatData, func(data []float64, nulls []bool) Float { return Float{data, nulls} })
	case types.Bool:
		return transposeAs(dst, cols, boolParts, func(data []bool, nulls []bool) Bool { return Bool{data, nulls} })
	case types.Datetime:
		return transposeAs(dst, cols, datetimeParts, func(data []int64, nulls []bool) Datetime { return Datetime{data, nulls} })
	case types.Object:
		return transposeAs(dst, cols, ObjectData, func(data []string, nulls []bool) Object { return Object{data, nulls} })
	}
	return false
}

// boolParts returns the bool storage behind v, as IntData does for Int.
func boolParts(v Vector) ([]bool, []bool, []int, bool) {
	base, idx := unview(v)
	if c, ok := base.(*Bool); ok {
		return c.data, c.nulls, idx, true
	}
	return nil, nil, nil, false
}

// datetimeParts returns the nanosecond storage behind v, as IntData does
// for Int.
func datetimeParts(v Vector) ([]int64, []bool, []int, bool) {
	base, idx := unview(v)
	if c, ok := base.(*Datetime); ok {
		return c.data, c.nulls, idx, true
	}
	return nil, nil, nil, false
}

// transposeAs is Transpose over storage of type T whose vectors are *V:
// parts reads one flat piece (a chunk is read piece by piece, so it is not
// flattened), mk wraps an output's range of the backing array.
func transposeAs[T any, V any, PV interface {
	*V
	Vector
}](dst, cols []Vector, parts func(Vector) ([]T, []bool, []int, bool), mk func([]T, []bool) V) bool {
	m, n := len(dst), len(cols)
	for _, col := range cols {
		if col.Len() != m {
			return false
		}
		for _, piece := range Pieces(col) {
			if _, _, _, ok := parts(piece); !ok {
				return false
			}
		}
	}
	data := make([]T, m*n)
	var mask, rowNull []bool
	for j, col := range cols {
		lo := 0
		for _, piece := range Pieces(col) {
			src, nulls, idx, _ := parts(piece)
			for k := range piece.Len() {
				at, i := k, (lo+k)*n+j
				if idx != nil {
					at = idx[k]
				}
				if at < 0 || nulls != nil && nulls[at] {
					if mask == nil {
						mask, rowNull = make([]bool, m*n), make([]bool, m)
					}
					mask[i], rowNull[lo+k] = true, true
					continue
				}
				data[i] = src[at]
			}
			lo += piece.Len()
		}
	}
	vs := make([]V, m)
	for i := range vs {
		var nulls []bool
		if rowNull != nil && rowNull[i] {
			nulls = mask[i*n : (i+1)*n : (i+1)*n]
		}
		vs[i] = mk(data[i*n:(i+1)*n:(i+1)*n], nulls)
		dst[i] = PV(&vs[i])
	}
	return true
}
