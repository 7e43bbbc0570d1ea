package core_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/vector"
)

// randColumn draws one random column of n rows in a random wire-encodable
// kind, with nil / sparse / all-null masks.
func randColumn(r *rand.Rand, n int) vector.Vector {
	var nulls []bool
	switch r.Intn(3) {
	case 1:
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = r.Intn(4) == 0
		}
	case 2:
		nulls = make([]bool, n)
		for i := range nulls {
			nulls[i] = true
		}
	}
	switch r.Intn(6) {
	case 0:
		data := make([]string, n)
		for i := range data {
			data[i] = fmt.Sprintf("s%d-%d", r.Intn(1000), i)
		}
		return vector.NewObject(data, nulls)
	case 1:
		data := make([]int64, n)
		for i := range data {
			data[i] = r.Int63() - r.Int63()
		}
		return vector.NewInt(data, nulls)
	case 2:
		data := make([]float64, n)
		for i := range data {
			if r.Intn(8) == 0 {
				data[i] = math.Inf(1)
			} else {
				data[i] = r.NormFloat64()
			}
		}
		return vector.NewFloat(data, nulls)
	case 3:
		data := make([]bool, n)
		for i := range data {
			data[i] = r.Intn(2) == 0
		}
		return vector.NewBool(data, nulls)
	case 4:
		data := make([]int64, n)
		for i := range data {
			data[i] = r.Int63n(1 << 40)
		}
		return vector.NewDatetime(data, nulls)
	default:
		ncat := r.Intn(4) + 1
		dict := make([]string, ncat)
		for i := range dict {
			dict[i] = fmt.Sprintf("cat%d", i)
		}
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(r.Intn(ncat))
		}
		return vector.NewDict(codes, dict, nulls)
	}
}

// randFrame draws a random frame: 1–5 columns of mixed kinds, 0–30 rows,
// and (sometimes) non-default row labels — the block shapes the shuffle
// ships. Generation can't fail on valid inputs, so errors panic (callers
// are tests and fuzz seeding).
func randFrame(r *rand.Rand, nrows int) *core.DataFrame {
	ncols := r.Intn(5) + 1
	names := make([]string, ncols)
	cols := make([]vector.Vector, ncols)
	for j := range cols {
		names[j] = fmt.Sprintf("c%d", j)
		cols[j] = randColumn(r, nrows)
	}
	df, err := core.New(names, cols)
	if err != nil {
		panic(err)
	}
	if r.Intn(2) == 0 {
		df, err = df.WithRowLabels(vector.Range(int64(r.Intn(1000)), nrows))
		if err != nil {
			panic(err)
		}
	}
	return df
}

// TestFrameWireRoundTripProperty checks the block codec's invariants over
// random frames: Equal after a round trip (labels and cells), exact buffer
// consumption, and byte-stable re-encoding — the property the coordinator
// leans on when a re-submitted band's block replaces a lost worker's.
func TestFrameWireRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for iter := 0; iter < 200; iter++ {
		nrows := r.Intn(30)
		if iter%10 == 0 {
			nrows = 0 // empty bands are legal blocks
		}
		want := randFrame(r, nrows)
		enc, err := core.EncodeFrame(nil, want)
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		got, rest, err := core.DecodeFrame(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if len(rest) != 0 {
			t.Fatalf("iter %d: %d trailing bytes", iter, len(rest))
		}
		// Byte-stability first: Equal induces the lazy schema, which fills
		// in declared domains — legitimate frame state, but not what the
		// encoder saw. Stability is a property of the frame as decoded.
		re, err := core.EncodeFrame(nil, got)
		if err != nil {
			t.Fatalf("iter %d: re-encode: %v", iter, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("iter %d: frame encoding not byte-stable", iter)
		}
		if !want.Equal(got) {
			t.Fatalf("iter %d: frame not Equal after round trip:\nwant:\n%s\ngot:\n%s", iter, want, got)
		}
	}
}

// FuzzDecodeFrame: arbitrary bytes must be rejected or decoded, never
// panic, and accepted frames must be byte-stable.
func FuzzDecodeFrame(f *testing.F) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 6; i++ {
		enc, err := core.EncodeFrame(nil, randFrame(r, r.Intn(10)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		df, _, err := core.DecodeFrame(data)
		if err != nil {
			return
		}
		enc, err := core.EncodeFrame(nil, df)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		df2, rest, err := core.DecodeFrame(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-encoded frame does not decode cleanly: err=%v rest=%d", err, len(rest))
		}
		re, err := core.EncodeFrame(nil, df2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatal("accepted frame not byte-stable under encode/decode")
		}
	})
}
