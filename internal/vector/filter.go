package vector

import (
	"math"
	"strings"

	"repro/internal/types"
)

// Typed filter kernels for SELECTION: column-op-constant predicates applied
// directly to the storage slices, producing the surviving row positions
// without constructing a types.Value per cell. The expr layer compiles
// structured predicates down to these; opaque func(Row) predicates keep the
// row-at-a-time path.
//
// Null semantics (shared with expr.Where and its opaque fallback): a null
// cell matches CmpEq only when the operand is itself null, matches CmpNe
// never, and never satisfies an ordering comparison. A null operand matches
// nulls under CmpEq, non-nulls under CmpNe, and nothing under orderings.

// CmpOp is a comparison operator of a structured predicate.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "=="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return "?"
}

// Accept reports whether a three-way comparison result (-1, 0, +1)
// satisfies the operator.
func (op CmpOp) Accept(c int) bool { return op.take(c) }

// take reports whether a three-way comparison result satisfies the operator.
func (op CmpOp) take(c int) bool {
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// forEach iterates the candidate positions: sel when non-nil, else [0, n).
func forEach(n int, sel []int, fn func(i int)) {
	if sel != nil {
		for _, i := range sel {
			fn(i)
		}
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func selCap(n int, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return n
}

// FilterInt applies op against an int64 operand over raw Int (or Datetime
// nanosecond) storage, appending surviving positions from sel (nil = every
// position) to a fresh selection.
func FilterInt(data []int64, nulls []bool, op CmpOp, operand int64, sel []int) []int {
	out := make([]int, 0, selCap(len(data), sel))
	forEach(len(data), sel, func(i int) {
		if nulls != nil && nulls[i] {
			return
		}
		if op.take(cmpInt64(data[i], operand)) {
			out = append(out, i)
		}
	})
	return out
}

// FilterFloat applies op against a float64 operand over raw Float storage.
// NaN payloads read as null (Float.Value's canonicalization) and never
// match.
func FilterFloat(data []float64, nulls []bool, op CmpOp, operand float64, sel []int) []int {
	out := make([]int, 0, selCap(len(data), sel))
	forEach(len(data), sel, func(i int) {
		if (nulls != nil && nulls[i]) || math.IsNaN(data[i]) {
			return
		}
		if op.take(cmpFloat64(data[i], operand)) {
			out = append(out, i)
		}
	})
	return out
}

// FilterIntAsFloat compares int64 storage against a non-integral operand
// (fare < 2.5 over an int column) in float space.
func FilterIntAsFloat(data []int64, nulls []bool, op CmpOp, operand float64, sel []int) []int {
	out := make([]int, 0, selCap(len(data), sel))
	forEach(len(data), sel, func(i int) {
		if nulls != nil && nulls[i] {
			return
		}
		if op.take(cmpFloat64(float64(data[i]), operand)) {
			out = append(out, i)
		}
	})
	return out
}

// FilterBool applies op against a bool operand over raw Bool storage
// (false < true).
func FilterBool(data []bool, nulls []bool, op CmpOp, operand bool, sel []int) []int {
	out := make([]int, 0, selCap(len(data), sel))
	forEach(len(data), sel, func(i int) {
		if nulls != nil && nulls[i] {
			return
		}
		if op.take(cmpBool(data[i], operand)) {
			out = append(out, i)
		}
	})
	return out
}

// FilterString applies op against a string operand over raw Object storage.
func FilterString(data []string, nulls []bool, op CmpOp, operand string, sel []int) []int {
	out := make([]int, 0, selCap(len(data), sel))
	forEach(len(data), sel, func(i int) {
		if nulls != nil && nulls[i] {
			return
		}
		if op.take(strings.Compare(data[i], operand)) {
			out = append(out, i)
		}
	})
	return out
}

// FilterDict applies op over dictionary codes: the operand is compared once
// per distinct dictionary entry, then every row is a table lookup — the
// dictionary-encoding fast path.
func FilterDict(codes []int32, dict []string, nulls []bool, op CmpOp, operand string, sel []int) []int {
	match := make([]bool, len(dict))
	for c, s := range dict {
		match[c] = op.take(strings.Compare(s, operand))
	}
	out := make([]int, 0, selCap(len(codes), sel))
	forEach(len(codes), sel, func(i int) {
		if nulls != nil && nulls[i] {
			return
		}
		if match[codes[i]] {
			out = append(out, i)
		}
	})
	return out
}

// nullMask returns the raw null mask of a typed vector (nil when the vector
// has no nulls), and whether the vector exposes one. Float is excluded: an
// unmasked NaN payload also reads as null there, so its null-ness is not
// fully described by the mask — Float callers go through IsNull.
func nullMask(v Vector) ([]bool, bool) {
	switch c := v.(type) {
	case *Object:
		return c.nulls, true
	case *Int:
		return c.nulls, true
	case *Bool:
		return c.nulls, true
	case *Datetime:
		return c.nulls, true
	case *Dict:
		return c.nulls, true
	}
	return nil, false
}

// FilterNotNull returns the non-null positions among sel (nil = all).
func FilterNotNull(v Vector, sel []int) []int {
	v = flat(v)
	if nulls, ok := nullMask(v); ok {
		if nulls == nil {
			if sel != nil {
				return sel
			}
			out := make([]int, v.Len())
			for i := range out {
				out[i] = i
			}
			return out
		}
		out := make([]int, 0, selCap(len(nulls), sel))
		forEach(len(nulls), sel, func(i int) {
			if !nulls[i] {
				out = append(out, i)
			}
		})
		return out
	}
	out := make([]int, 0, selCap(v.Len(), sel))
	forEach(v.Len(), sel, func(i int) {
		if !v.IsNull(i) {
			out = append(out, i)
		}
	})
	return out
}

// FilterNull returns the null positions among sel (nil = all).
func FilterNull(v Vector, sel []int) []int {
	v = flat(v)
	out := make([]int, 0, selCap(v.Len(), sel))
	if nulls, ok := nullMask(v); ok {
		if nulls == nil {
			return out
		}
		forEach(len(nulls), sel, func(i int) {
			if nulls[i] {
				out = append(out, i)
			}
		})
		return out
	}
	forEach(v.Len(), sel, func(i int) {
		if v.IsNull(i) {
			out = append(out, i)
		}
	})
	return out
}

// NullFlags returns a null-free Bool vector whose entry i is v.IsNull(i) —
// the bulk form of the isnull MAP. Mask-described kinds copy their mask
// (never alias it: the result is a new column), a chunk piece by piece;
// Float, views and Any go through IsNull.
func NullFlags(v Vector) *Bool {
	flags := make([]bool, v.Len())
	at := flags
	for _, piece := range Pieces(v) {
		if nulls, ok := nullMask(piece); ok {
			copy(at, nulls)
		} else {
			for i := range piece.Len() {
				at[i] = piece.IsNull(i)
			}
		}
		at = at[piece.Len():]
	}
	return NewBool(flags, nil)
}

// Filter applies a column-op-constant comparison over v, returning the
// surviving positions among sel (nil = all) and whether a typed kernel
// applied. ok=false means the caller must use the boxed fallback — the
// semantics are unusual enough (cross-representation operand, Composite
// column) that no storage kernel exists.
func Filter(v Vector, op CmpOp, operand types.Value, sel []int) ([]int, bool) {
	if operand.IsNull() {
		switch op {
		case CmpEq:
			return FilterNull(v, sel), true
		case CmpNe:
			return FilterNotNull(v, sel), true
		default:
			return make([]int, 0), true
		}
	}
	switch c := flat(v).(type) {
	case *Int:
		switch operand.Domain() {
		case types.Int:
			return FilterInt(c.data, c.nulls, op, operand.Int(), sel), true
		case types.Float, types.Bool:
			return FilterIntAsFloat(c.data, c.nulls, op, operand.Float(), sel), true
		}
	case *Float:
		if operand.Domain().Numeric() {
			return FilterFloat(c.data, c.nulls, op, operand.Float(), sel), true
		}
	case *Bool:
		switch operand.Domain() {
		case types.Bool:
			return FilterBool(c.data, c.nulls, op, operand.Bool(), sel), true
		}
	case *Datetime:
		if operand.Domain() == types.Datetime {
			return FilterInt(c.data, c.nulls, op, operand.Int(), sel), true
		}
	case *Object:
		if d := operand.Domain(); d == types.Object || d == types.Category {
			return FilterString(c.data, c.nulls, op, operand.Str(), sel), true
		}
	case *Dict:
		if d := operand.Domain(); d == types.Object || d == types.Category {
			return FilterDict(c.codes, c.dict, c.nulls, op, operand.Str(), sel), true
		}
	}
	return nil, false
}
