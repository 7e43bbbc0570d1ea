package algebra

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// hashKeyFrame builds a frame whose key column has nulls, repeated values
// and a literal "NA" string (distinct from null), plus an int payload.
func hashKeyFrame(t *testing.T) *core.DataFrame {
	t.Helper()
	key := vector.NewObject(
		[]string{"a", "NA", "b", "a", "NA", "b", "a"},
		//        -    null  -    -   str.  -    -
		[]bool{false, true, false, false, false, false, false},
	)
	val := vector.NewInt([]int64{1, 2, 3, 4, 5, 6, 7}, nil)
	df, err := core.New([]string{"k", "v"}, []vector.Vector{key, val})
	if err != nil {
		t.Fatal(err)
	}
	return df
}

// TestGroupByNullKeyVsNAString asserts the hash-keyed grouping keeps a null
// key and the literal string "NA" in separate groups — the renderer-based
// representation conflated values whose printed forms agree.
func TestGroupByNullKeyVsNAString(t *testing.T) {
	df := hashKeyFrame(t)
	out, err := GroupByFrame(df, expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// First-appearance order: "a" (1+4+7), null (2), "b" (3+6), "NA" (5).
	if out.NRows() != 4 {
		t.Fatalf("want 4 groups (null and \"NA\" distinct), got %d", out.NRows())
	}
	wantKeys := []types.Value{types.String("a"), types.Null(), types.String("b"), types.String("NA")}
	wantSums := []float64{12, 2, 9, 5}
	for i := range wantSums {
		k, s := out.Value(i, 0), out.Value(i, 1)
		if !k.Equal(wantKeys[i]) {
			t.Errorf("group %d key = %#v, want %#v", i, k, wantKeys[i])
		}
		if s.Float() != wantSums[i] {
			t.Errorf("group %d sum = %v, want %v", i, s.Float(), wantSums[i])
		}
	}
}

// TestGroupByForcedHashCollisions narrows every row hash to 3 bits so
// distinct keys collide constantly; the exemplar verification must keep the
// result identical to the full-width run.
func TestGroupByForcedHashCollisions(t *testing.T) {
	spec := expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
	}
	df := hashKeyFrame(t)
	want, err := GroupByFrame(df, spec)
	if err != nil {
		t.Fatal(err)
	}
	restore := SetRowHashMaskForTesting(0x7)
	defer restore()
	got, err := GroupByFrame(df, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("collided groupby differs:\ngot  %v rows\nwant %v rows", got.NRows(), want.NRows())
	}
	// Degenerate mask: every row hashes identically.
	restore2 := SetRowHashMaskForTesting(0)
	defer restore2()
	got0, err := GroupByFrame(df, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !got0.Equal(want) {
		t.Error("all-colliding groupby differs from full-width result")
	}
}

// TestGroupPartialMergeUnderCollisions exercises the cross-partial merge
// path with colliding hashes.
func TestGroupPartialMergeUnderCollisions(t *testing.T) {
	restore := SetRowHashMaskForTesting(0x3)
	defer restore()
	spec := expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
	}
	df := hashKeyFrame(t)
	g1 := NewGroupPartial(spec)
	if err := g1.AddFrame(df.SliceRows(0, 4)); err != nil {
		t.Fatal(err)
	}
	g2 := NewGroupPartial(spec)
	if err := g2.AddFrame(df.SliceRows(4, df.NRows())); err != nil {
		t.Fatal(err)
	}
	g1.Merge(g2)
	merged, err := g1.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := GroupByFrame(df, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Equal(whole) {
		t.Error("merged partials differ from single-pass groupby under collisions")
	}
}

// TestGroupByDictKeys groups on a dictionary-encoded (Category) column and
// checks order and aggregation, plus agreement with the same data as
// Object.
func TestGroupByDictKeys(t *testing.T) {
	codes := []string{"red", "blue", "red", "green", "blue", "red"}
	dict := vector.NewDictFromStrings(codes)
	obj := vector.NewObject(append([]string(nil), codes...), nil)
	val := vector.NewInt([]int64{1, 2, 3, 4, 5, 6}, nil)
	spec := expr.GroupBySpec{
		Keys: []string{"k"},
		Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum, As: "s"}},
	}
	dfDict := core.MustNew([]string{"k", "v"}, []vector.Vector{dict, val})
	dfObj := core.MustNew([]string{"k", "v"}, []vector.Vector{obj, val})
	a, err := GroupByFrame(dfDict, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GroupByFrame(dfObj, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.NRows() != 3 {
		t.Fatalf("want 3 groups, got %d", a.NRows())
	}
	if !a.Equal(b) {
		t.Error("Dict-keyed groupby differs from Object-keyed groupby on the same data")
	}
	// First appearance: red(1+3+6), blue(2+5), green(4).
	for i, want := range []float64{10, 7, 4} {
		if a.Value(i, 1).Float() != want {
			t.Errorf("group %d sum = %v, want %v", i, a.Value(i, 1).Float(), want)
		}
	}
}

// TestJoinAndDedupUnderCollisions runs every key-index kernel — JOIN of
// each kind on key columns and on row labels, DROP-DUPLICATES, DIFFERENCE
// and a two-band SummarizeGroupKeys → GroupKeyFold fold — with forced
// collisions and checks each against its full-width result.
func TestJoinAndDedupUnderCollisions(t *testing.T) {
	left := hashKeyFrame(t)
	right := core.MustNew([]string{"k", "tag"}, []vector.Vector{
		vector.NewObject([]string{"a", "NA", "b"}, []bool{false, true, false}),
		vector.NewObject([]string{"A", "NULLTAG", "B"}, nil),
	})
	leftByKey, err := left.WithRowLabels(left.TypedCol(0))
	if err != nil {
		t.Fatal(err)
	}
	rightByKey, err := right.WithRowLabels(right.TypedCol(0))
	if err != nil {
		t.Fatal(err)
	}
	kernels := func() map[string]*core.DataFrame {
		out := map[string]*core.DataFrame{}
		add := func(name string, df *core.DataFrame, err error) {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = df
		}
		for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft, expr.JoinRight, expr.JoinOuter} {
			df, err := JoinFrames(left, right, kind, []string{"k"}, false)
			add(kind.String()+" join on k", df, err)
			df, err = JoinFrames(leftByKey, rightByKey, kind, nil, true)
			add(kind.String()+" join on labels", df, err)
		}
		df, err := DropDuplicatesFrame(left, []string{"k"})
		add("drop-duplicates", df, err)
		df, err = DifferenceFrames(left, left.SliceRows(0, 2))
		add("difference", df, err)
		add("group-key fold", foldBands(t, left.SliceRows(0, 4), left.SliceRows(4, left.NRows())), nil)
		return out
	}
	want := kernels()

	// Null keys never match: a, a, a and b, b pair up; the null-keyed rows
	// of both sides and the left "NA" row do not.
	for kind, rows := range map[string]int{"inner": 5, "left": 7, "right": 6, "outer": 8} {
		for _, on := range []string{" join on k", " join on labels"} {
			if got := want[kind+on].NRows(); got != rows {
				t.Errorf("%s%s: %d rows, want %d", kind, on, got, rows)
			}
		}
	}
	joined := want["inner join on k"]
	for i := 0; i < joined.NRows(); i++ {
		if joined.Value(i, joined.ColIndex("tag")).String() == "NULLTAG" {
			t.Error("null key must not join")
		}
	}
	if n := want["drop-duplicates"].NRows(); n != 4 {
		t.Errorf("dedup should keep a, null, b, \"NA\": got %d rows", n)
	}
	// Global first appearance over both bands: a, null, b, "NA".
	fold := want["group-key fold"]
	if fold.NRows() != 4 || !fold.Value(1, 0).IsNull() {
		t.Fatalf("fold keys:\n%s\nwant a, null, b, \"NA\"", fold)
	}
	for g, key := range map[int]string{0: "a", 2: "b", 3: "NA"} {
		if got := fold.Value(g, 0); got.IsNull() || got.Str() != key {
			t.Errorf("fold key %d = %v, want %q", g, got, key)
		}
	}

	restore := SetRowHashMaskForTesting(0x1)
	defer restore()
	for name, got := range kernels() {
		if !got.Equal(want[name]) {
			t.Errorf("%s differs under forced collisions:\ngot:\n%s\nwant:\n%s", name, got, want[name])
		}
	}
}

// foldBands folds the bands' SummarizeGroupKeys summaries over column k,
// in band order, through a GroupKeyFold and returns its keys in global-id
// order.
func foldBands(t *testing.T, bands ...*core.DataFrame) *core.DataFrame {
	t.Helper()
	fold := NewGroupKeyFold()
	for _, band := range bands {
		s, err := SummarizeGroupKeys(band, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		fold.AddBand(s.Hashes, s.Exemplars)
	}
	keys := make([]types.Value, len(fold.Exemplars))
	for g, ex := range fold.Exemplars {
		keys[g] = ex[0]
	}
	return core.MustNew([]string{"k"}, []vector.Vector{buildColumn(keys)})
}

// TestKeyIndexDenseIDsAcrossGrowth inserts keys whose hashes share two bits,
// so every probe walks collisions: ids stay dense and in insertion order
// across several table growths, re-inserting finds the same id, and an
// absent key misses.
func TestKeyIndexDenseIDsAcrossGrowth(t *testing.T) {
	restore := SetRowHashMaskForTesting(0x3)
	defer restore()
	var x keyIndex
	var keys [][]types.Value
	eq := func(key []types.Value) func(int32) bool {
		return func(id int32) bool { return tuplesEqual(keys[id], key) }
	}
	growths := 0
	for k := 0; k < 200; k++ {
		key := []types.Value{types.IntValue(int64(k))}
		slots := len(x.slots)
		id, added := x.insert(hashValues(key), eq(key))
		if !added || id != int32(k) {
			t.Fatalf("insert %d: id %d added %v, want id %d added", k, id, added, k)
		}
		keys = append(keys, key)
		if len(x.slots) != slots {
			growths++
		}
	}
	if growths < 5 {
		t.Fatalf("%d growths, want several", growths)
	}
	for k, key := range keys {
		if id, added := x.insert(hashValues(key), eq(key)); added || id != int32(k) {
			t.Fatalf("re-insert %d: id %d added %v", k, id, added)
		}
		if id := x.find(hashValues(key), eq(key)); id != int32(k) {
			t.Fatalf("find %d: id %d", k, id)
		}
	}
	absent := []types.Value{types.IntValue(1000)}
	if id := x.find(hashValues(absent), eq(absent)); id != -1 {
		t.Fatalf("absent key found as id %d", id)
	}
	var empty keyIndex
	if id := empty.find(hashValues(absent), eq(absent)); id != -1 {
		t.Fatalf("empty index found id %d", id)
	}
}

// TestKeyIndexReserveNeverGrows reserves room for n keys, then inserts n
// keys whose hashes share two bits: neither the slot table nor the hash
// slice is reallocated, the table stays under half full, ids stay dense,
// and every key is found. Reserving again for more keys re-places the ids
// already held without renumbering them.
func TestKeyIndexReserveNeverGrows(t *testing.T) {
	restore := SetRowHashMaskForTesting(0x3)
	defer restore()
	const n = 300
	var x keyIndex
	x.reserve(0)
	if len(x.slots) != 0 || cap(x.hashes) != 0 {
		t.Fatalf("reserve(0) sized the index: %d slots, hash cap %d", len(x.slots), cap(x.hashes))
	}
	x.reserve(n)
	slots, hashCap := len(x.slots), cap(x.hashes)
	if slots < 2*n || hashCap < n {
		t.Fatalf("reserve(%d): %d slots, hash cap %d", n, slots, hashCap)
	}
	var keys [][]types.Value
	eq := func(key []types.Value) func(int32) bool {
		return func(id int32) bool { return tuplesEqual(keys[id], key) }
	}
	for k := 0; k < n; k++ {
		key := []types.Value{types.IntValue(int64(k))}
		id, added := x.insert(hashValues(key), eq(key))
		if !added || id != int32(k) {
			t.Fatalf("insert %d: id %d added %v, want id %d added", k, id, added, k)
		}
		keys = append(keys, key)
		if len(x.slots) != slots || cap(x.hashes) != hashCap {
			t.Fatalf("insert %d grew the index: %d → %d slots, hash cap %d → %d", k, slots, len(x.slots), hashCap, cap(x.hashes))
		}
	}
	x.reserve(4 * n)
	if len(x.slots) <= slots {
		t.Fatalf("reserve(%d) kept %d slots", 4*n, len(x.slots))
	}
	for k, key := range keys {
		if id := x.find(hashValues(key), eq(key)); id != int32(k) {
			t.Fatalf("find %d after re-reserve: id %d", k, id)
		}
	}
}

// TestSelectWhereMatchesSelectRows checks the kernel filter against the
// row-at-a-time path across representations and operators.
func TestSelectWhereMatchesSelectRows(t *testing.T) {
	df := core.MustNew([]string{"i", "f", "s", "c"}, []vector.Vector{
		vector.NewInt([]int64{3, 1, 4, 1, 5}, []bool{false, true, false, false, false}),
		vector.NewFloat([]float64{1.5, 2.5, 0, 3.5, 2.5}, []bool{false, false, true, false, false}),
		vector.NewObject([]string{"x", "y", "x", "z", "y"}, nil),
		vector.NewDictFromStrings([]string{"m", "n", "m", "m", "n"}),
	})
	cases := []*expr.Where{
		expr.WhereEquals("i", types.IntValue(1)),
		expr.WhereCompare("i", vector.CmpGe, types.IntValue(3)),
		expr.WhereCompare("f", vector.CmpLt, types.FloatValue(2.6)),
		expr.WhereEquals("s", types.String("y")),
		expr.WhereCompare("c", vector.CmpNe, types.CategoryValue("m")),
		expr.WhereNotNull("i"),
		expr.WhereIsNull("f"),
		expr.WhereNotNull("i").And("f", vector.CmpGt, types.FloatValue(1)).And("s", vector.CmpNe, types.String("z")),
		expr.WhereEquals("missing", types.IntValue(1)),
		expr.WhereIsNull("missing"),
		expr.WhereAnd(),
	}
	for _, w := range cases {
		got, err := SelectWhere(df, w)
		if err != nil {
			t.Fatal(err)
		}
		want := SelectRows(df, w.Predicate())
		if !got.Equal(want) {
			t.Errorf("SelectWhere(%s) = %d rows, SelectRows fallback = %d rows", w.Describe(), got.NRows(), want.NRows())
		}
	}
}

// TestSummarizeGroupKeysOrdinals checks the shuffle-routing summary:
// ordinals follow first appearance, hashes match the boxed tuples, and the
// "NA" string stays distinct from null.
func TestSummarizeGroupKeysOrdinals(t *testing.T) {
	df := hashKeyFrame(t)
	s, err := SummarizeGroupKeys(df, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	wantOrds := []int32{0, 1, 2, 0, 3, 2, 0} // a, null, b, a, "NA", b, a
	for i, w := range wantOrds {
		if s.Ordinals[i] != w {
			t.Fatalf("ordinals = %v, want %v", s.Ordinals, wantOrds)
		}
	}
	if len(s.Hashes) != 4 || len(s.Exemplars) != 4 {
		t.Fatalf("want 4 distinct keys, got %d", len(s.Hashes))
	}
	for d, ex := range s.Exemplars {
		if got := hashValues(ex); got != s.Hashes[d] {
			t.Errorf("distinct %d: exemplar hash %x != summary hash %x", d, got, s.Hashes[d])
		}
	}
	// Empty key list: the whole-frame group.
	s0, err := SummarizeGroupKeys(df, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s0.Hashes) != 1 {
		t.Fatalf("keyless summary should have one group, got %d", len(s0.Hashes))
	}
	for _, o := range s0.Ordinals {
		if o != 0 {
			t.Fatal("keyless summary ordinals must all be 0")
		}
	}
}

// TestKeylessCountSizeBulkPath checks the NullCount-driven fast path for
// whole-frame COUNT/SIZE aggregates against per-row accumulation.
func TestKeylessCountSizeBulkPath(t *testing.T) {
	df := core.MustNew([]string{"v"}, []vector.Vector{
		vector.NewInt([]int64{1, 0, 3, 0, 5}, []bool{false, true, false, true, false}),
	})
	out, err := GroupByFrame(df, expr.GroupBySpec{Aggs: []expr.AggSpec{
		{Col: "v", Agg: expr.AggCount, As: "count"},
		{Col: "v", Agg: expr.AggSize, As: "size"},
		{Col: "v", Agg: expr.AggSum, As: "sum"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NRows() != 1 {
		t.Fatalf("want 1 row, got %d", out.NRows())
	}
	if got := out.Value(0, 0).Int(); got != 3 {
		t.Errorf("count = %d, want 3 (non-null)", got)
	}
	if got := out.Value(0, 1).Int(); got != 5 {
		t.Errorf("size = %d, want 5 (all rows)", got)
	}
	if got := out.Value(0, 2).Float(); got != 9 {
		t.Errorf("sum = %v, want 9", got)
	}
}

// TestJoinTableMatchesJoinFrames builds one table over the right input and
// joins three left bands against it at once, as MODIN's probe bands do:
// stacked, with data joins' positional labels renumbered, the bands must
// equal JoinFrames over the whole left input for inner and left joins on
// duplicate and null keys, on row labels, and on a Dict key with nulls
// whose sides hold their own category tables — each band's probe keeps its
// own per-code memo, which the race detector checks is not the table's.
func TestJoinTableMatchesJoinFrames(t *testing.T) {
	n := 300
	lrec := make([][]any, n)
	for i := range lrec {
		var k any = i % 11
		if i%23 == 0 {
			k = nil
		}
		lrec[i] = []any{k, i}
	}
	rrec := make([][]any, n/2)
	for i := range rrec {
		var k any = i % 13
		if i%19 == 0 {
			k = nil
		}
		rrec[i] = []any{k, i * 2}
	}
	// dictSide is a side's records with its keys as a Dict column over a
	// table of its own: the labels k12, k11, …, k0, or their reverse.
	dictSide := func(recs [][]any, other string, reversed bool) *core.DataFrame {
		table := make([]string, 13)
		for c := range table {
			if table[c] = fmt.Sprint("k", 12-c); reversed {
				table[c] = fmt.Sprint("k", c)
			}
		}
		codes, nulls, payload := make([]int32, len(recs)), make([]bool, len(recs)), make([]int64, len(recs))
		for i, rec := range recs {
			if rec[0] == nil {
				nulls[i] = true
			} else if codes[i] = int32(12 - rec[0].(int)); reversed {
				codes[i] = int32(rec[0].(int))
			}
			payload[i] = int64(rec[1].(int))
		}
		return core.MustBuild([]vector.Vector{vector.NewDict(codes, table, nulls), vector.NewInt(payload, nil)}, nil,
			[]types.Value{types.String("k"), types.String(other)}, []types.Domain{types.Category, types.Int}, nil)
	}
	for _, c := range []struct {
		name        string
		left, right *core.DataFrame
		onLabels    bool
	}{
		{"int", core.MustFromRecords([]string{"k", "x"}, lrec), core.MustFromRecords([]string{"k", "y"}, rrec), false},
		{"labels", core.MustFromRecords([]string{"k", "x"}, lrec), core.MustFromRecords([]string{"k", "y"}, rrec), true},
		{"dict", dictSide(lrec, "x", false), dictSide(rrec, "y", true), false},
	} {
		left, right, onLabels := c.left, c.right, c.onLabels
		bands := []*core.DataFrame{left.SliceRows(0, 90), left.SliceRows(90, 90), left.SliceRows(90, n)}
		on := []string{"k"}
		if onLabels {
			on = nil
		}
		table := BuildJoinTable(right, on, onLabels)
		for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
			want, err := JoinFrames(left, right, kind, on, onLabels)
			if err != nil {
				t.Fatal(err)
			}
			parts := make([]*core.DataFrame, len(bands))
			errs := make([]error, len(bands))
			var wg sync.WaitGroup
			for b, band := range bands {
				wg.Add(1)
				go func() {
					defer wg.Done()
					parts[b], errs[b] = table.Join(band, kind)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := VStackFrames(parts...)
			if err != nil {
				t.Fatal(err)
			}
			if !onLabels {
				if got, err = got.WithRowLabels(vector.Range(0, got.NRows())); err != nil {
					t.Fatal(err)
				}
			}
			if !want.Equal(got) {
				t.Fatalf("%s kind %v: banded joins disagree with JoinFrames:\nwant:\n%s\ngot:\n%s", c.name, kind, want, got)
			}
		}
	}
}

// TestGroupKeysDoNotAllocatePerGroup guards the typed key identity: group
// keys are verified against first rows and kept chunks, never boxed, so
// grouping 25,000 distinct Int keys allocates a small constant more than
// grouping 1,000, not one allocation per group (24,000 more). The constant
// is the per-group slices' growth: append grows a large slice by about
// 1.25×, a dozen more reallocations each. A partial folded from two frames
// keeps one key row per group, not the frames' rows.
func TestGroupKeysDoNotAllocatePerGroup(t *testing.T) {
	spec := expr.GroupBySpec{Keys: []string{"k"}, Aggs: []expr.AggSpec{{Col: "v", Agg: expr.AggSum}, {Agg: expr.AggSize}}}
	frame := func(keys, rows, offset int) *core.DataFrame {
		k, v := make([]int64, rows), make([]float64, rows)
		for i := range k {
			k[i], v[i] = int64(offset+i%keys), float64(i)
		}
		return core.MustNew([]string{"k", "v"}, []vector.Vector{vector.NewInt(k, nil), vector.NewFloat(v, nil)})
	}
	allocs := func(keys int) float64 {
		df := frame(keys, 2*keys, 0)
		return testing.AllocsPerRun(3, func() {
			out, err := GroupByFrame(df, spec)
			if err != nil || out.NRows() != keys {
				t.Fatalf("GroupByFrame: %v", err)
			}
		})
	}
	few, many := allocs(1_000), allocs(25_000)
	if many-few > 100 {
		t.Errorf("GroupByFrame allocates %.0f times for 1,000 keys, %.0f for 25,000: per-group allocation", few, many)
	}

	g := NewGroupPartial(spec)
	for _, df := range []*core.DataFrame{frame(1_000, 3_000, 0), frame(1_000, 3_000, 500)} {
		if err := g.AddFrame(df); err != nil {
			t.Fatal(err)
		}
	}
	held := 0
	for _, c := range g.keys.chunks {
		held += c.cols[0].Len()
	}
	if g.NumGroups() != 1_500 || held != g.NumGroups() {
		t.Errorf("%d groups hold %d key rows in %d chunks, want one row per group", g.NumGroups(), held, len(g.keys.chunks))
	}
}
