package sketch

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/core"
)

func TestPrecisionBounds(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("precision 3 should fail")
	}
	if _, err := New(17); err == nil {
		t.Error("precision 17 should fail")
	}
	if _, err := New(12); err != nil {
		t.Error("precision 12 should work")
	}
}

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{10, 100, 1_000, 10_000, 100_000} {
		h := MustNew(12)
		for i := 0; i < n; i++ {
			h.Add(fmt.Sprintf("value-%d", i))
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.05 {
			t.Errorf("n=%d: estimate %.0f, relative error %.3f > 5%%", n, est, relErr)
		}
	}
}

func TestDuplicatesDoNotInflate(t *testing.T) {
	h := MustNew(12)
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 200; i++ {
			h.Add(fmt.Sprintf("v%d", i))
		}
	}
	est := h.Estimate()
	if est < 180 || est > 220 {
		t.Errorf("estimate of 200 distinct (x50 reps) = %.0f", est)
	}
}

func TestSketchColumnAndArity(t *testing.T) {
	n := 5000
	records := make([][]any, n)
	for i := range records {
		var v any = fmt.Sprintf("cat-%d", i%37)
		if i%100 == 0 {
			v = nil
		}
		records[i] = []any{v, i}
	}
	df := core.MustFromRecords([]string{"cat", "id"}, records)
	est, err := EstimateArity(df, "cat")
	if err != nil {
		t.Fatal(err)
	}
	if est < 33 || est > 41 {
		t.Errorf("arity estimate of 37 categories = %.1f", est)
	}
	idEst, err := EstimateArity(df, "id")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(idEst-float64(n))/float64(n) > 0.05 {
		t.Errorf("arity estimate of %d ids = %.1f", n, idEst)
	}
	if _, err := EstimateArity(df, "ghost"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestEmptySketchEstimatesZero(t *testing.T) {
	if e := MustNew(12).Estimate(); e != 0 {
		t.Errorf("empty sketch estimate = %v", e)
	}
}

// TestAddHashIsAddWithoutMixing: Add is AddHash over the mixed FNV-1a hash of
// the key, so both paths fill identical registers, and repeating a hash
// changes nothing.
func TestAddHashIsAddWithoutMixing(t *testing.T) {
	byKey, byHash := MustNew(10), MustNew(10)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i%300)
		byKey.Add(key)
		f := fnv.New64a()
		f.Write([]byte(key))
		byHash.AddHash(mix64(f.Sum64()))
	}
	if !bytes.Equal(byKey.registers, byHash.registers) {
		t.Fatal("Add and AddHash filled different registers")
	}
	before := byHash.Estimate()
	byHash.AddHash(mix64(42))
	byHash.AddHash(mix64(42))
	once := byHash.Estimate()
	byHash.AddHash(mix64(42))
	if byHash.Estimate() != once || once < before {
		t.Errorf("estimates %v → %v → %v: a repeated hash must not move it", before, once, byHash.Estimate())
	}
}
