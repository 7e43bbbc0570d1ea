package vector

import "repro/internal/types"

// Any is a vector of arbitrary Values, used for Composite-domain columns
// (collect aggregates) and other transient heterogeneous columns. It trades
// the columnar layout for generality; operators consume Any columns promptly
// (e.g. the MAP-flatten step of a pivot).
type Any struct {
	data []types.Value
}

// NewAny wraps the given values as an Any vector. The slice is not copied.
func NewAny(data []types.Value) *Any { return &Any{data: data} }

// Len returns the number of entries.
func (v *Any) Len() int { return len(v.data) }

// Domain returns types.Composite.
func (v *Any) Domain() types.Domain { return types.Composite }

// IsNull reports whether entry i is null.
func (v *Any) IsNull(i int) bool { return v.data[i].IsNull() }

// Value returns entry i.
func (v *Any) Value(i int) types.Value { return v.data[i] }

// Slice returns the subvector [lo, hi), sharing storage.
func (v *Any) Slice(lo, hi int) Vector {
	checkSlice(len(v.data), lo, hi)
	return &Any{data: v.data[lo:hi]}
}

// Take returns the entries at idx, with -1 yielding null.
func (v *Any) Take(idx []int) Vector { return take(v, idx) }
