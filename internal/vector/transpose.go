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
	if len(cols) == 0 || d == types.Category {
		return false
	}
	for _, col := range cols {
		if col.Len() != len(dst) {
			return false
		}
	}
	_, ok := (&gather{vs: cols, mode: transposed, dst: dst}).typed(d)
	return ok
}
