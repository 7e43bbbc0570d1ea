package vector

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randSeqInputs draws the inputs of a stack of positional labels: two to
// five sequences — each continuing the one before it or starting anywhere,
// a slice of a longer one, or a selection view over one with -1 entries —
// empty ones included, and now and then a flat Int among them.
func randSeqInputs(r *rand.Rand) []Vector {
	inputs := make([]Vector, 2+r.Intn(4))
	next := int64(r.Intn(7)) - 3
	if r.Intn(4) == 0 {
		next = 1 << 32 * int64(r.Intn(7)) // a routed band's positions
	}
	continues := r.Intn(2) == 0
	for k := range inputs {
		n := r.Intn(60)
		if r.Intn(6) == 0 {
			n = 0
		}
		start := next
		if !continues && r.Intn(2) == 0 {
			start = int64(r.Intn(200)) - 100
		}
		switch r.Intn(8) {
		case 0, 1, 2:
			inputs[k] = Range(start, n)
		case 3:
			lo := r.Intn(11)
			inputs[k] = Range(start-int64(lo), n+lo+r.Intn(5)).Slice(lo, lo+n)
		case 4, 5:
			base := Range(start, r.Intn(40)+1)
			idx := make([]int, n)
			for i := range idx {
				idx[i] = r.Intn(base.Len()+1) - 1
			}
			inputs[k] = TakeView(base, idx)
		case 6:
			inputs[k] = randOfKind(r, "int", n, nil)
		default:
			inputs[k] = Range(start, n).Slice(0, n/2)
		}
		next = start + int64(inputs[k].Len())
	}
	return inputs
}

// FuzzSequencesMatchFlat stacks drawn sequence inputs (randSeqInputs) and
// checks the stack against a flat copy of its values on every method and
// kernel, and every gather shape over the inputs — Concat, Clone, Take of a
// view with -1 entries, TakeRuns — against the cells they copy: flat Int
// storage, the same masks, the same values. Sequences that continue one
// another stack into one sequence, and no gather makes a sequence's flat
// copy.
func FuzzSequencesMatchFlat(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		inputs := randSeqInputs(r)
		stacked := Stack(inputs...)
		flat := flatOracle(inputs[0].Domain(), inputs)
		nonEmpty := slices.DeleteFunc(slices.Clone(inputs), func(v Vector) bool { return v.Len() == 0 })
		if _, ok := continuing(nonEmpty); ok && len(nonEmpty) > 1 {
			if _, seq := stacked.(*sequence); !seq {
				t.Fatalf("%d sequences that continue one another stacked as %T", len(nonEmpty), stacked)
			}
		}
		before := FlattenedRows()
		checkGathers(t, r, inputs, flat)
		for _, v := range inputs {
			idx := make([]int, r.Intn(2*v.Len()+2))
			for i := range idx {
				idx[i] = r.Intn(v.Len()+1) - 1
			}
			var refs []cellRef
			for _, i := range idx {
				if i < 0 {
					refs = append(refs, cellRef{})
				} else {
					refs = append(refs, cellRef{v, i})
				}
			}
			sameStorage(t, "take of an input", v.Take(idx), refs, flatOracle(v.Domain(), []Vector{v}).Take(idx))
		}
		if n := FlattenedRows() - before; n != 0 {
			t.Fatalf("the gathers flattened %d rows", n)
		}
		checkChunkedMatchesFlat(t, r, stacked, flat)
	})
}

// TestSequenceFlattensOnceUnderConcurrentReads reads one sequence's typed
// storage from many goroutines at once, racing readers that compute its
// cells: each typed reader sees the same flat copy, made once.
func TestSequenceFlattensOnceUnderConcurrentReads(t *testing.T) {
	const n = 400
	s := Range(1<<32, n)
	before := FlattenedRows()
	var wg sync.WaitGroup
	got := make([][]int64, 8)
	for g := range got {
		wg.Add(2)
		go func() {
			defer wg.Done()
			data, _, _, ok := IntData(s)
			if !ok {
				t.Error("IntData refused a sequence")
			}
			got[g] = data
			NewSortKey([]Vector{s}, []bool{false})
		}()
		go func() {
			defer wg.Done()
			for i := g; i < n; i += 37 {
				if s.Value(i).Int() != 1<<32+int64(i) || s.Slice(i, n).Value(0).Int() != 1<<32+int64(i) {
					t.Errorf("row %d read wrong while the sequence was flattened", i)
				}
			}
			if s.Take([]int{n - 1, -1}).Value(0).Int() != 1<<32+n-1 {
				t.Error("take read wrong while the sequence was flattened")
			}
		}()
	}
	wg.Wait()
	if d := FlattenedRows() - before; d != n {
		t.Fatalf("flattened %d rows, want one copy of %d", d, n)
	}
	for g := range got {
		if &got[g][0] != &got[0][0] || got[g][n-1] != 1<<32+n-1 {
			t.Fatalf("reader %d saw a different flat copy", g)
		}
	}
}

// TestHashViewReadsChunkPiecesInPlace hashes a 2-row view over a 200-row
// chunk — of Int pieces, of Dict pieces each on its own table, of
// sequences — and requires the hashes of the rows it views without
// flattening the chunk.
func TestHashViewReadsChunkPiecesInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, kind := range []string{"int", "dict", "float", "object", "seq"} {
		pieces := make([]Vector, 4)
		for p := range pieces {
			switch kind {
			case "seq":
				pieces[p] = Range(int64(100*p), 50)
			case "dict":
				pieces[p] = randOfKind(r, kind, 50, []string{"x", string(rune('a' + p)), "y"})
			default:
				pieces[p] = randOfKind(r, kind, 50, nil)
			}
		}
		c := Stack(pieces...)
		if _, ok := c.(*Chunked); !ok {
			t.Fatalf("%s: stacked as %T", kind, c)
		}
		flat := flatOracle(c.Domain(), pieces)
		idx := []int{173, -1, 12}
		before := FlattenedRows()
		got, want := make([]uint64, len(idx)), make([]uint64, len(idx))
		Hash(TakeView(c, idx), 5, got)
		Hash(TakeView(flat, idx), 5, want)
		if n := FlattenedRows() - before; n != 0 || len(Pieces(c)) != 4 {
			t.Fatalf("%s: hashing a view flattened %d rows of its chunk", kind, n)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: hashes %x, want %x", kind, got, want)
		}
	}
}
