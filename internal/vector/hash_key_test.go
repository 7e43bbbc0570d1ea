package vector

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

// inverse returns the multiplicative inverse of an odd a modulo 2^64, by
// Newton's iteration: each step doubles the number of correct low bits.
func inverse(a uint64) uint64 {
	x := a // correct to 3 bits for odd a
	for range 5 {
		x *= 2 - a*x
	}
	return x
}

// unmix64 inverts mix64: each x ^= x >> s is undone by xoring in every
// further multiple of s, and each odd multiplier by its inverse.
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= inverse(mixB)
	x ^= x>>27 ^ x>>54
	x *= inverse(mixA)
	x ^= x>>30 ^ x>>60
	return x
}

// TestMix64IsABijection checks that unmix64 undoes mix64 both ways, on
// edge words and random ones: mix64 is a bijection, so an Int key's hash,
// hashWord(seed, tagInt, x), determines x — the fact HashIsKey rests on.
func TestMix64IsABijection(t *testing.T) {
	words := []uint64{0, 1, 2, 1 << 63, ^uint64(0), mixA, mixB, tagInt, tagNull}
	r := rand.New(rand.NewSource(50))
	for range 100_000 {
		words = append(words, r.Uint64())
	}
	for _, x := range words {
		if got := unmix64(mix64(x)); got != x {
			t.Fatalf("unmix64(mix64(%#x)) = %#x", x, got)
		}
		if got := mix64(unmix64(x)); got != x {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", x, got)
		}
	}
	for _, a := range []uint64{mixA, mixB} {
		if a*inverse(a) != 1 {
			t.Fatalf("inverse(%#x) is not its inverse", a)
		}
	}
}

// TestHashIsKey lists the vectors whose hash is their key — every entry a
// non-null Int word — and those that keep the hash's equality check, and
// requires the predicate to read chunks and views without flattening them.
func TestHashIsKey(t *testing.T) {
	ints := NewInt([]int64{4, 5, 6, 7}, nil)
	masked := NewInt([]int64{4, 5, 6, 7}, []bool{false, false, false, false})
	nullable := NewInt([]int64{4, 5, 6, 7}, []bool{false, true, false, false})
	seqs := Stack(Range(0, 40), Range(100, 40))
	cases := []struct {
		name string
		v    Vector
		want bool
	}{
		{"int", ints, true},
		{"int, mask without a null", masked, true},
		{"empty int", NewInt(nil, nil), true},
		{"sequence", Range(10, 5), true},
		{"int with a null", nullable, false},
		{"view", TakeView(ints, []int{3, 0, 0}), true},
		{"view with -1", TakeView(ints, []int{3, -1}), false},
		{"view past a null", TakeView(nullable, []int{0, 2, 3}), true},
		{"view onto a null", TakeView(nullable, []int{0, 1}), false},
		{"view of a sequence", TakeView(Range(3, 9), []int{8, 0}), true},
		{"chunk of sequences", seqs, true},
		{"view of a chunk", TakeView(seqs, []int{79, 2}), true},
		{"view of a chunk with -1", TakeView(seqs, []int{79, -1}), false},
		{"chunk of ints and sequences", Stack(Range(0, 40), NewInt(make([]int64, 40), nil)), true},
		{"chunk with a null", Stack(Range(0, 40), NewInt(make([]int64, 40), append(make([]bool, 39), true))), false},
		{"integral float", NewFloat([]float64{1, 2}, nil), false},
		{"bool", NewBool([]bool{true, false}, nil), false},
		{"datetime", NewDatetime([]int64{1, 2}, nil), false},
		{"object", NewObjectFromStrings([]string{"a", "b"}), false},
		{"dict", NewDictFromStrings([]string{"a", "b"}), false},
		{"boxed", FromValues(types.Composite, nil), false},
	}
	before := FlattenedRows()
	for _, c := range cases {
		if got := HashIsKey(c.v); got != c.want {
			t.Errorf("HashIsKey(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	if n := FlattenedRows() - before; n != 0 || len(Pieces(seqs)) != 2 {
		t.Fatalf("HashIsKey flattened %d rows", n)
	}
}

// TestHashRowsRangeMatchesWhole hashes every range of a composite key — a
// flat Int, a view over a Dict, a chunk of Floats — and requires the rows'
// whole-key hashes, without slicing or flattening a column.
func TestHashRowsRangeMatchesWhole(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	const n = 150
	fl := Stack(randOfKind(r, "float", 70, nil), randOfKind(r, "float", 80, nil))
	idx := r.Perm(n)
	idx[7] = -1
	cols := []Vector{randOfKind(r, "int", n, nil), TakeView(randOfKind(r, "dict", n, []string{"x", "y", "z"}), idx), fl}
	whole := make([]uint64, n)
	HashRows(cols, 3, whole)
	before := FlattenedRows()
	for lo := 0; lo <= n; lo += 7 {
		for _, hi := range []int{lo, min(lo+1, n), min(lo+33, n), n} {
			dst, tmp := make([]uint64, hi-lo), make([]uint64, hi-lo)
			HashRowsRange(cols, 3, lo, dst, tmp)
			if !slices.Equal(dst, whole[lo:hi]) {
				t.Fatalf("rows [%d:%d) hash differently from the whole key's", lo, hi)
			}
		}
	}
	if FlattenedRows() != before || len(Pieces(fl)) != 2 {
		t.Fatalf("hashing ranges flattened a column")
	}
}
