package vector

import (
	"repro/internal/types"
)

// view is a lazily-indexed projection of a base vector: entry i reads base
// entry idx[i]. It is the zero-copy selection-vector primitive the shuffle
// partition phase routes rows with — bucket views share the base column's
// storage, so splitting a band into B buckets allocates only the per-bucket
// index slices, never cell data.
type view struct {
	base Vector
	idx  []int
}

// TakeView returns a view of base at the given positions without copying
// entries; index -1 yields null, mirroring Take. The view pins base for its
// lifetime — use Take when the result must outlive a much larger base.
func TakeView(base Vector, idx []int) Vector {
	return &view{base: base, idx: idx}
}

// Len returns the number of selected entries.
func (v *view) Len() int { return len(v.idx) }

// Domain returns the base vector's domain.
func (v *view) Domain() types.Domain { return v.base.Domain() }

// IsNull reports whether selected entry i is null.
func (v *view) IsNull(i int) bool {
	if v.idx[i] < 0 {
		return true
	}
	return v.base.IsNull(v.idx[i])
}

// Value returns selected entry i.
func (v *view) Value(i int) types.Value {
	if v.idx[i] < 0 {
		return types.NullValue(v.base.Domain())
	}
	return v.base.Value(v.idx[i])
}

// Slice returns the subview [lo, hi), sharing the index slice.
func (v *view) Slice(lo, hi int) Vector {
	checkSlice(len(v.idx), lo, hi)
	return &view{base: v.base, idx: v.idx[lo:hi]}
}

// ViewParts exposes a view's base vector and selection indices, reporting
// ok=false for any other vector kind. Fused selection chains use this to
// compose a new selection over the original storage instead of stacking
// views on views.
func ViewParts(v Vector) (base Vector, idx []int, ok bool) {
	vw, ok := v.(*view)
	if !ok {
		return nil, nil, false
	}
	return vw.base, vw.idx, true
}

// Materialize flattens a view into typed storage via its base's Take, and a
// chunked vector into its one flat copy (made once, then kept in place of
// its pieces); other vectors are returned unchanged. A view's take is the
// single coalescing copy a fused stage pays at exit after chaining
// selections as views.
func Materialize(v Vector) Vector {
	switch c := v.(type) {
	case *view:
		return c.base.Take(c.idx)
	case *Chunked:
		return c.flatten()
	}
	return v
}

// Take returns the entries at idx, -1 yielding null, read through the view.
func (v *view) Take(idx []int) Vector { return take(v, idx) }
