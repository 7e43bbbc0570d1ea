package vector

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/types"
)

// chunkKinds are the storage kinds a chunk can hold, by name.
var chunkKinds = []string{"object", "int", "float", "bool", "datetime", "dict", "any"}

// randOfKind draws a flat vector of n rows of one storage kind. A Dict
// draws its codes from table, so pieces can share a category table or not.
func randOfKind(r *rand.Rand, kind string, n int, table []string) Vector {
	nulls := randNulls(r, n)
	switch kind {
	case "object":
		data := make([]string, n)
		for i := range data {
			data[i] = fmt.Sprint(r.Intn(9))
			if r.Intn(8) == 0 {
				data[i] = randString(r)
			}
		}
		return NewObject(data, nulls)
	case "int", "datetime":
		data := make([]int64, n)
		for i := range data {
			data[i] = int64(r.Intn(7)) - 3
			if r.Intn(8) == 0 {
				data[i] = randInt64(r)
			}
		}
		if kind == "int" {
			return NewInt(data, nulls)
		}
		return NewDatetime(data, nulls)
	case "float":
		data := make([]float64, n)
		for i := range data {
			switch r.Intn(6) {
			case 0:
				data[i] = math.NaN()
			case 1:
				data[i] = math.Copysign(0, -1)
			default:
				data[i] = float64(r.Intn(7)) / 2
			}
		}
		return NewFloat(data, nulls)
	case "bool":
		data := make([]bool, n)
		for i := range data {
			data[i] = r.Intn(2) == 0
		}
		return NewBool(data, nulls)
	case "dict":
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(r.Intn(len(table)))
		}
		return NewDict(codes, table, nulls)
	default:
		data := make([]types.Value, n)
		for i := range data {
			if r.Intn(5) == 0 {
				data[i] = types.NullValue(types.Int)
			} else {
				data[i] = types.IntValue(int64(r.Intn(5)))
			}
		}
		return NewAny(data)
	}
}

// randPiece draws one input of a stack: a flat vector, a slice of a longer
// one, or a selection view over one (-1 selecting a null) — empty inputs
// included.
func randPiece(r *rand.Rand, kind string, table []string) Vector {
	n := r.Intn(60)
	if r.Intn(6) == 0 {
		n = 0
	}
	switch r.Intn(3) {
	case 0:
		return randOfKind(r, kind, n, table)
	case 1:
		base := randOfKind(r, kind, n+10, table)
		lo := r.Intn(11)
		return base.Slice(lo, lo+n)
	default:
		base := randOfKind(r, kind, r.Intn(40)+1, table)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = r.Intn(base.Len()+1) - 1
		}
		return TakeView(base, idx)
	}
}

// flatOracle copies the inputs' values, in order, into one vector of their
// domain through a builder: the stack as a flat column, by a path that
// shares no code with Chunked.
func flatOracle(dom types.Domain, inputs []Vector) Vector {
	var vals []types.Value
	for _, v := range inputs {
		vals = append(vals, Values(v)...)
	}
	return FromValues(dom, vals)
}

// sameCell reports whether two entries read alike: both null, or equal
// values of one domain.
func sameCell(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return a.Domain() == b.Domain() && a.Equal(b)
}

func sameVector(t *testing.T, what string, got, want Vector) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, want %d", what, got.Len(), want.Len())
	}
	for i := range want.Len() {
		if !sameCell(got.Value(i), want.Value(i)) || got.IsNull(i) != want.IsNull(i) {
			t.Fatalf("%s: row %d = %v (null %v), want %v (null %v)", what, i, got.Value(i), got.IsNull(i), want.Value(i), want.IsNull(i))
		}
	}
}

// cellRef names row i of a flat or viewed input; a nil v names a null.
type cellRef struct {
	v Vector
	i int
}

// refsOf names every row of the inputs, end to end.
func refsOf(inputs ...Vector) []cellRef {
	var refs []cellRef
	for _, v := range inputs {
		for i := range v.Len() {
			refs = append(refs, cellRef{v, i})
		}
	}
	return refs
}

// stored returns row i of a flat or viewed vector as its storage holds it —
// a Float's bits, a Dict's label, an Any's value — and whether its null
// mask or a -1 selection marks it.
func stored(v Vector, i int) (any, bool) {
	if vw, ok := v.(*view); ok {
		if vw.idx[i] < 0 {
			return nil, true
		}
		return stored(vw.base, vw.idx[i])
	}
	masked := func(nulls []bool) bool { return nulls != nil && nulls[i] }
	switch c := v.(type) {
	case *sequence:
		return c.start + int64(i), false
	case *Int:
		return c.data[i], masked(c.nulls)
	case *Float:
		return math.Float64bits(c.data[i]), masked(c.nulls)
	case *Bool:
		return c.data[i], masked(c.nulls)
	case *Datetime:
		return c.data[i], masked(c.nulls)
	case *Object:
		return c.data[i], masked(c.nulls)
	case *Dict:
		if masked(c.nulls) {
			return nil, true // the code of a null may index no label
		}
		return c.dict[c.codes[i]], false
	}
	return v.Value(i), v.IsNull(i)
}

// sameStorage checks a gather's output against the rows it copied, bit for
// bit: it is flat storage of the oracle's kind, a masked or -1 row is
// masked, and an unmasked row keeps its stored bits (NaN payloads, -0) —
// or is masked where it reads null, as a Float NaN built boxed is.
func sameStorage(t *testing.T, what string, got Vector, want []cellRef, oracle Vector) {
	t.Helper()
	if reflect.TypeOf(got) != reflect.TypeOf(oracle) || got.Len() != len(want) {
		t.Fatalf("%s: %T of %d rows, want %T of %d", what, got, got.Len(), oracle, len(want))
	}
	for p, ref := range want {
		gx, gm := stored(got, p)
		var wx any
		wm, reads := true, true
		if ref.v != nil {
			wx, wm = stored(ref.v, ref.i)
			reads = ref.v.IsNull(ref.i)
		}
		same := gm || gx == wx
		if g, ok := gx.(types.Value); ok && !gm {
			same = sameCell(g, wx.(types.Value))
		}
		if wm && !gm || gm && !reads || !same {
			t.Fatalf("%s: row %d holds %v (masked %v), want %v (masked %v)", what, p, gx, gm, wx, wm)
		}
	}
}

// checkGathers reads the inputs of one storage kind through every gather
// shape — Concat, Clone, a take of a view over their chunk with -1 entries,
// and TakeRuns over runs mixing flat, viewed, chunked and view-over-chunk
// inputs — and checks each output against the rows it copied.
func checkGathers(t *testing.T, r *rand.Rand, inputs []Vector, oracle Vector) {
	chunk, all := Stack(inputs...), refsOf(inputs...)
	if len(all) == 0 {
		return
	}
	sel := make([]int, r.Intn(2*len(all)+1))
	selRefs := make([]cellRef, len(sel))
	for k := range sel {
		if sel[k] = r.Intn(len(all)+1) - 1; sel[k] >= 0 {
			selRefs[k] = all[sel[k]]
		}
	}
	over := TakeView(chunk, sel)
	for name, got := range map[string]Vector{"concat": Concat(inputs...), "clone": Clone(chunk)} {
		sameVector(t, name, got, oracle)
		sameStorage(t, name, got, all, oracle)
	}
	sameStorage(t, "clone of a view over the chunk", Clone(over), selRefs, oracle)
	idx := make([]int, r.Intn(len(sel)+2))
	idxRefs := make([]cellRef, len(idx))
	for k := range idx {
		if idx[k] = r.Intn(len(sel)+1) - 1; idx[k] >= 0 {
			idxRefs[k] = selRefs[idx[k]]
		}
	}
	sameStorage(t, "take of a view over the chunk", over.Take(idx), idxRefs, oracle)
	runs := append(slices.Clone(inputs), chunk, over)
	runRefs := make([][]cellRef, len(runs))
	for k, v := range inputs {
		runRefs[k] = refsOf(v)
	}
	runRefs[len(inputs)], runRefs[len(inputs)+1] = all, selRefs
	var at []RunRow
	var atRefs []cellRef
	for range r.Intn(3 * len(all)) {
		k := r.Intn(len(runs))
		if n := len(runRefs[k]); n > 0 {
			i := r.Intn(n)
			at, atRefs = append(at, RunRow{int32(k), int32(i)}), append(atRefs, runRefs[k][i])
		}
	}
	sameStorage(t, "takeruns", TakeRuns(runs, at), atRefs, oracle)
}

// checkChunkedMatchesFlat compares every method of c, and every kernel that
// reads it, with the same call on its flat oracle.
func checkChunkedMatchesFlat(t *testing.T, r *rand.Rand, c, flat Vector) {
	n := flat.Len()
	if c.Len() != n || c.Domain() != flat.Domain() || NullCount(c) != NullCount(flat) {
		t.Fatalf("len %d domain %v nulls %d, want %d %v %d", c.Len(), c.Domain(), NullCount(c), n, flat.Domain(), NullCount(flat))
	}
	sameVector(t, "rows", c, flat)
	for range 8 {
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		sameVector(t, fmt.Sprintf("slice [%d:%d)", lo, hi), c.Slice(lo, hi), flat.Slice(lo, hi))
	}
	idx := make([]int, r.Intn(2*n+1))
	for k := range idx {
		idx[k] = r.Intn(n+1) - 1
	}
	sameVector(t, "take", c.Take(idx), flat.Take(idx))
	sameVector(t, "take of a view", Materialize(TakeView(c, idx)), flat.Take(idx))

	hc, hf := make([]uint64, n), make([]uint64, n)
	Hash(c, 9, hc)
	Hash(flat, 9, hf)
	if !slices.Equal(hc, hf) {
		t.Fatalf("hashes differ")
	}
	for range 8 {
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		h := make([]uint64, hi-lo)
		if HashRange(c, 9, lo, h); !slices.Equal(h, hf[lo:hi]) {
			t.Fatalf("HashRange [%d:%d) differs", lo, hi)
		}
	}
	if HashIsKey(c) && (flat.Domain() != types.Int || NullCount(flat) > 0) {
		t.Fatalf("HashIsKey holds over %v rows with %d nulls", flat.Domain(), NullCount(flat))
	}
	for range 32 {
		if n == 0 {
			break
		}
		i, j := r.Intn(n), r.Intn(n)
		if EqualRows(c, i, c, j) != EqualRows(flat, i, flat, j) || EqualRows(c, i, flat, j) != EqualRows(flat, i, flat, j) {
			t.Fatalf("EqualRows(%d, %d) differs", i, j)
		}
		if CompareRows(c, i, c, j) != CompareRows(flat, i, flat, j) || CompareRows(c, i, flat, j) != CompareRows(flat, i, flat, j) {
			t.Fatalf("CompareRows(%d, %d) differs", i, j)
		}
		if v := flat.Value(j); CompareRowValue(c, i, v) != CompareRowValue(flat, i, v) {
			t.Fatalf("CompareRowValue(%d, %v) differs", i, v)
		}
		for _, op := range []CmpOp{CmpEq, CmpLt, CmpGe} {
			// A lone view input stacks as itself, which Filter leaves to
			// the boxed fallback; a chunk must take the typed kernel.
			got, gok := Filter(c, op, flat.Value(j), nil)
			want, wok := Filter(flat, op, flat.Value(j), nil)
			if _, chunk := c.(*Chunked); gok && wok && !slices.Equal(got, want) || chunk && gok != wok {
				t.Fatalf("Filter %v %v: %v (%v), want %v (%v)", op, flat.Value(j), got, gok, want, wok)
			}
		}
	}
	sameVector(t, "null flags", NullFlags(c), NullFlags(flat))
	if !slices.Equal(FilterNull(c, nil), FilterNull(flat, nil)) || !slices.Equal(FilterNotNull(c, nil), FilterNotNull(flat, nil)) {
		t.Fatalf("null filters differ")
	}
	glo, ghi := MinMax(c)
	wlo, whi := MinMax(flat)
	if !sameCell(glo, wlo) || !sameCell(ghi, whi) {
		t.Fatalf("MinMax %v %v, want %v %v", glo, ghi, wlo, whi)
	}
	for _, desc := range []bool{false, true} {
		d := []bool{desc}
		if !slices.Equal(Order([]Vector{c}, d, n), Order([]Vector{flat}, d, n)) {
			t.Fatalf("Order (desc %v) differs", desc)
		}
		kc, cok := NewSortKey([]Vector{c}, d)
		kf, fok := NewSortKey([]Vector{flat}, d)
		if cok != fok {
			t.Fatalf("SortKey has a word form %v, flat %v", cok, fok)
		}
		for range 16 {
			if !cok || n == 0 {
				break
			}
			i, j := r.Intn(n), r.Intn(n)
			if kc.Compare(i, j) != kf.Compare(i, j) {
				t.Fatalf("SortKey words order rows %d, %d differently", i, j)
			}
			// A Dict's words rank its table, which the oracle rebuilds
			// from the cells alone; every other kind's words are its
			// values'.
			for w := 0; w < kc.Width() && c.Domain() != types.Category; w++ {
				if kc.Width() != kf.Width() || kc.Word(i, w) != kf.Word(i, w) {
					t.Fatalf("SortKey word %d of row %d differs", w, i)
				}
			}
		}
	}
	sameVector(t, "clone", Clone(c), flat)
	wc, cerr := AppendWire(nil, c)
	if _, ferr := AppendWire(nil, flat); (cerr == nil) != (ferr == nil) {
		t.Fatalf("wire errors %v, flat %v", cerr, ferr)
	}
	if cerr == nil {
		dec, rest, err := DecodeWire(wc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v, %d bytes left", err, len(rest))
		}
		sameVector(t, "wire round trip", dec, flat)
	}
	// A flattened chunk keeps its flat copy as its one piece, in place of
	// the pieces it copied, and reads as before.
	if ch, ok := c.(*Chunked); ok {
		f := Materialize(ch)
		if p := Pieces(ch); len(p) != 1 || p[0] != f {
			t.Fatalf("a flattened chunk holds %d pieces, want its flat copy alone", len(p))
		}
		sameVector(t, "rows after flattening", c, flat)
		lo := r.Intn(n + 1)
		hi := lo + r.Intn(n-lo+1)
		sameVector(t, "slice after flattening", c.Slice(lo, hi), flat.Slice(lo, hi))
		sameVector(t, "take after flattening", c.Take(idx), flat.Take(idx))
	}
}

// FuzzChunkedMatchesFlat stacks random inputs of one storage kind — flat,
// sliced and viewed, empty ones and null masks on some only, Dict inputs
// on one category table or each on its own — and checks the chunk against
// a flat copy of its values on every method and kernel, and every gather
// shape over the inputs against the cells they copy.
func FuzzChunkedMatchesFlat(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		r := rand.New(rand.NewSource(seed))
		name := chunkKinds[int(kind)%len(chunkKinds)]
		shared := []string{"b", "a", "c", "a"}
		inputs := make([]Vector, 2+r.Intn(4))
		for k := range inputs {
			table := shared
			if r.Intn(2) == 0 {
				table = []string{"c", fmt.Sprint("d", k), "a"}
			}
			inputs[k] = randPiece(r, name, table)
		}
		stacked := Stack(inputs...)
		flat := flatOracle(inputs[0].Domain(), inputs)
		if c, ok := stacked.(*Chunked); ok {
			if n := len(c.st.Load().pieces); stacked.Len() < stackCopyRows || n < 2 {
				t.Fatalf("chunk of %d rows in %d pieces", stacked.Len(), n)
			}
		} else if nonEmpty := slices.DeleteFunc(slices.Clone(inputs), func(v Vector) bool { return v.Len() == 0 }); len(nonEmpty) > 1 && stacked.Len() >= stackCopyRows {
			t.Fatalf("%d same-kind inputs of %d rows stacked as %T", len(nonEmpty), stacked.Len(), stacked)
		}
		checkGathers(t, r, inputs, flat)
		checkChunkedMatchesFlat(t, r, stacked, flat)
	})
}

// TestFlattenOnceUnderConcurrentReads reads one chunked column's typed
// storage from many goroutines at once: each sees the same flat copy, and
// the chunk is flattened once.
func TestFlattenOnceUnderConcurrentReads(t *testing.T) {
	pieces := make([]Vector, 4)
	for p := range pieces {
		data := make([]int64, 100)
		for i := range data {
			data[i] = int64(p*100 + i)
		}
		pieces[p] = NewInt(data, nil)
	}
	c := Stack(pieces...)
	before := FlattenedRows()
	var wg sync.WaitGroup
	got := make([][]int64, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _, _, ok := IntData(c)
			if !ok {
				t.Error("IntData refused a chunk of Int pieces")
			}
			got[g] = data
			Hash(c, 1, make([]uint64, c.Len()))
			NewSortKey([]Vector{c}, []bool{false})
		}()
		// Readers through the pieces race the flattening readers.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < c.Len(); i += 37 {
				if c.Value(i).Int() != int64(i) || c.Slice(i, min(i+150, c.Len())).Value(0).Int() != int64(i) {
					t.Errorf("row %d read wrong while the chunk was flattened", i)
				}
			}
			if c.Take([]int{399, 0}).Value(0).Int() != 399 {
				t.Error("take read wrong while the chunk was flattened")
			}
		}()
	}
	wg.Wait()
	if n := FlattenedRows() - before; n != int64(c.Len()) {
		t.Fatalf("flattened %d rows, want one copy of %d", n, c.Len())
	}
	if p := Pieces(c); len(p) != 1 {
		t.Fatalf("the flattened chunk holds %d pieces, want its flat copy alone", len(p))
	}
	for g := range got {
		if &got[g][0] != &got[0][0] || got[g][399] != 399 {
			t.Fatalf("reader %d saw a different flat copy", g)
		}
	}
}
