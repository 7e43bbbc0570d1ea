// Package vector provides the columnar storage layer beneath the dataframe
// data model: typed, immutable vectors with null bitmaps, builders, and the
// bulk kernels (slice, take, concat) the algebra operators are built on.
//
// A dataframe column is one vector; the paper's raw Σ* array Amn corresponds
// to Object vectors, and the parsed form produced by a parsing function p_i
// corresponds to the typed vectors here.
package vector

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// Vector is an immutable, typed column of values with a null mask.
//
// Implementations are append-only via Builder; operators produce new vectors
// rather than mutating, which is what lets partitions be shared between
// dataframes without copies.
type Vector interface {
	// Len returns the number of entries.
	Len() int
	// Domain returns the domain of the vector's entries.
	Domain() types.Domain
	// Value returns the i'th entry (possibly the domain's null).
	Value(i int) types.Value
	// IsNull reports whether the i'th entry is null.
	IsNull(i int) bool
	// Slice returns the subvector [lo, hi). The result may share storage
	// with the receiver.
	Slice(lo, hi int) Vector
	// Take returns a new vector with the entries at the given positions,
	// in the given order. Positions of -1 produce nulls (used by outer
	// joins and reindexing).
	Take(idx []int) Vector
}

// nullCounter is implemented by vectors that can report their null count
// directly from storage (O(1) for null-free vectors, one mask scan
// otherwise) instead of an interface call per entry.
type nullCounter interface{ NullCount() int }

// NullCount returns the number of null entries in v, using the vector's
// direct count when available.
func NullCount(v Vector) int {
	if c, ok := v.(nullCounter); ok {
		return c.NullCount()
	}
	n := 0
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			n++
		}
	}
	return n
}

// countMask counts set entries of a null mask (nil masks count zero).
func countMask(nulls []bool) int {
	n := 0
	for _, b := range nulls {
		if b {
			n++
		}
	}
	return n
}

// Values materializes the vector as a slice of Values.
func Values(v Vector) []types.Value {
	out := make([]types.Value, v.Len())
	for i := range out {
		out[i] = v.Value(i)
	}
	return out
}

// Strings renders every entry of v as its string form (nulls as "NA").
func Strings(v Vector) []string {
	out := make([]string, v.Len())
	for i := range out {
		out[i] = v.Value(i).String()
	}
	return out
}

// FromValues builds a vector in domain d from the given values, coercing
// each value through the domain when necessary.
func FromValues(d types.Domain, vals []types.Value) Vector {
	b := NewBuilder(d, len(vals))
	for _, v := range vals {
		b.Append(v)
	}
	return b.Build()
}

// Concat concatenates the vectors in order. All inputs must share a domain
// unless one of them is Object, in which case the result falls back to
// Object. An empty input has no say: a shuffle bucket that received no rows
// hands back untyped empty columns, and letting those drag a Datetime column
// through its rendering would cut it to whole seconds. Concat of zero
// vectors returns an empty Object vector.
func Concat(vs ...Vector) Vector {
	if len(vs) == 0 {
		return NewObjectBuilder(0).Build()
	}
	empty := func(v Vector) bool { return v.Len() == 0 }
	if slices.ContainsFunc(vs, empty) {
		first := vs[0]
		if vs = slices.DeleteFunc(slices.Clone(vs), empty); len(vs) == 0 {
			return first
		}
	}
	dom := vs[0].Domain()
	total := 0
	for _, v := range vs {
		total += v.Len()
		if v.Domain() != dom {
			dom = types.Object
		}
	}
	if out, ok := concatTyped(vs, total); ok {
		return out
	}
	b := NewBuilder(dom, total)
	for _, v := range vs {
		for i := 0; i < v.Len(); i++ {
			b.Append(v.Value(i))
		}
	}
	return b.Build()
}

// concatTyped concatenates same-representation inputs by copying storage
// slices — no boxing. It covers the homogeneous cases the shuffle merge and
// gather paths produce (including Dict inputs sharing one category table);
// anything mixed, viewed, or composite reports !ok and takes the builder
// path.
func concatTyped(vs []Vector, total int) (Vector, bool) {
	switch vs[0].(type) {
	case *Int:
		data := make([]int64, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Int)
			if !ok {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(data), c.Len())
			data = append(data, c.data...)
		}
		return NewInt(data, padMask(nulls, total)), true
	case *Float:
		data := make([]float64, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Float)
			if !ok {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(data), c.Len())
			data = append(data, c.data...)
		}
		return NewFloat(data, padMask(nulls, total)), true
	case *Bool:
		data := make([]bool, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Bool)
			if !ok {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(data), c.Len())
			data = append(data, c.data...)
		}
		return NewBool(data, padMask(nulls, total)), true
	case *Datetime:
		data := make([]int64, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Datetime)
			if !ok {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(data), c.Len())
			data = append(data, c.data...)
		}
		return NewDatetime(data, padMask(nulls, total)), true
	case *Object:
		data := make([]string, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Object)
			if !ok {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(data), c.Len())
			data = append(data, c.data...)
		}
		return NewObject(data, padMask(nulls, total)), true
	case *Dict:
		first := vs[0].(*Dict)
		codes := make([]int32, 0, total)
		var nulls []bool
		for _, v := range vs {
			c, ok := v.(*Dict)
			if !ok || !SameDict(first.dict, c.dict) {
				return nil, false
			}
			nulls = appendMask(nulls, c.nulls, len(codes), c.Len())
			codes = append(codes, c.codes...)
		}
		return NewDict(codes, first.dict, padMask(nulls, total)), true
	}
	return nil, false
}

// appendMask accumulates a concatenated null mask lazily: nil until the
// first non-nil input mask, then padded to stay aligned with the data.
func appendMask(acc, mask []bool, off, n int) []bool {
	if mask == nil {
		if acc != nil {
			acc = append(acc, make([]bool, n)...)
		}
		return acc
	}
	if acc == nil {
		acc = make([]bool, off, off+n)
	}
	return append(acc, mask...)
}

// padMask extends a partial mask to the full length (nil stays nil: no
// nulls anywhere).
func padMask(mask []bool, total int) []bool {
	if mask == nil {
		return nil
	}
	for len(mask) < total {
		mask = append(mask, false)
	}
	return mask
}

// Equal reports whether two vectors have the same length, and pairwise-equal
// entries (domains may differ if the values compare equal across domains).
func Equal(a, b Vector) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !a.Value(i).Equal(b.Value(i)) {
			return false
		}
	}
	return true
}

// Repeat returns a vector of n copies of v.
func Repeat(v types.Value, n int) Vector {
	b := NewBuilder(v.Domain(), n)
	for i := 0; i < n; i++ {
		b.Append(v)
	}
	return b.Build()
}

// Nulls returns a vector of n nulls in domain d.
func Nulls(d types.Domain, n int) Vector {
	b := NewBuilder(d, n)
	for i := 0; i < n; i++ {
		b.AppendNull()
	}
	return b.Build()
}

// Range returns an Int vector [start, start+n).
func Range(start int64, n int) Vector {
	data := make([]int64, n)
	for i := range data {
		data[i] = start + int64(i)
	}
	return NewInt(data, nil)
}

func checkSlice(length, lo, hi int) {
	if lo < 0 || hi > length || lo > hi {
		panic(fmt.Sprintf("vector: slice [%d:%d) out of range for length %d", lo, hi, length))
	}
}

// takeNulls computes the null mask for a Take over the given mask, treating
// index -1 as null.
func takeNulls(nulls []bool, idx []int) []bool {
	var out []bool
	for j, i := range idx {
		if i == -1 || (nulls != nil && nulls[i]) {
			if out == nil {
				out = make([]bool, len(idx))
			}
			out[j] = true
		}
	}
	return out
}

func sliceNulls(nulls []bool, lo, hi int) []bool {
	if nulls == nil {
		return nil
	}
	return nulls[lo:hi]
}
