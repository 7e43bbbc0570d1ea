// Package sketch implements the HyperLogLog distinct-value estimator the
// paper points at for the two-dimensional size-estimation problem of
// Section 5.2.3: operators like pivot and get_dummies have output *arity*
// proportional to a column's distinct-value count, so the planner needs
// cheap cardinality sketches over intermediate results, not just base
// tables.
package sketch

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"

	"repro/internal/core"
)

// HLL is a HyperLogLog sketch with 2^precision registers. The zero value is
// unusable; construct with New.
type HLL struct {
	precision uint8
	registers []uint8
}

// New returns a sketch with 2^precision registers; precision must be in
// [4, 16]. Standard error is ~1.04/sqrt(2^precision) (≈1.6% at p=12).
func New(precision uint8) (*HLL, error) {
	if precision < 4 || precision > 16 {
		return nil, fmt.Errorf("sketch: precision %d out of range [4, 16]", precision)
	}
	return &HLL{precision: precision, registers: make([]uint8, 1<<precision)}, nil
}

// MustNew is New, panicking on error.
func MustNew(precision uint8) *HLL {
	h, err := New(precision)
	if err != nil {
		panic(err)
	}
	return h
}

// Add observes one value (by its canonical key string).
func (h *HLL) Add(key string) {
	f := fnv.New64a()
	f.Write([]byte(key))
	// FNV's high bits avalanche poorly on short keys; finalize with
	// splitmix64 so the register index (top bits) is well dispersed.
	h.AddHash(mix64(f.Sum64()))
}

// AddHash observes one value by a pre-mixed 64-bit hash, e.g. a bulk row
// hash from internal/vector. The hash must already be well dispersed; no
// further mixing is applied, so the same value must always present the same
// hash (true of the vector kernels, which are seed-deterministic).
func (h *HLL) AddHash(x uint64) {
	idx := x >> (64 - h.precision)
	rest := x<<h.precision | 1<<(h.precision-1) // ensure termination
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// mix64 is the splitmix64 finalizer: full-avalanche bit mixing.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Estimate returns the estimated distinct count.
func (h *HLL) Estimate() float64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	// Small-range correction (linear counting).
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// SketchColumn builds a sketch over one dataframe column's values (typed
// through the column's induced domain).
func SketchColumn(df *core.DataFrame, col string, precision uint8) (*HLL, error) {
	j := df.ColIndex(col)
	if j < 0 {
		return nil, fmt.Errorf("sketch: unknown column %q", col)
	}
	h, err := New(precision)
	if err != nil {
		return nil, err
	}
	v := df.TypedCol(j)
	for i := 0; i < v.Len(); i++ {
		if v.IsNull(i) {
			continue
		}
		h.Add(v.Value(i).Key())
	}
	return h, nil
}

// EstimateArity estimates the output arity of a pivot or one-hot encoding
// over the column: its distinct-value count, the Section 5.2.3 quantity.
func EstimateArity(df *core.DataFrame, col string) (float64, error) {
	h, err := SketchColumn(df, col, 12)
	if err != nil {
		return 0, err
	}
	return h.Estimate(), nil
}
