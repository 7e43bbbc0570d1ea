package partition

import (
	"testing"

	"fmt"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"

	"repro/internal/types"
	"repro/internal/vector"
)

func frame(t *testing.T, rows, cols int) *core.DataFrame {
	t.Helper()
	names := make([]string, cols)
	records := make([][]any, rows)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	for i := range records {
		rec := make([]any, cols)
		for j := range rec {
			rec[j] = i*cols + j
		}
		records[i] = rec
	}
	return core.MustFromRecords(names, records)
}

func TestSchemes(t *testing.T) {
	df := frame(t, 20, 6)
	rows := New(df, Rows, 4)
	if rows.RowBands() != 4 || rows.ColBands() != 1 {
		t.Errorf("rows scheme = %dx%d bands", rows.RowBands(), rows.ColBands())
	}
	cols := New(df, Cols, 3)
	if cols.RowBands() != 1 || cols.ColBands() != 3 {
		t.Errorf("cols scheme = %dx%d bands", cols.RowBands(), cols.ColBands())
	}
	blocks := New(df, Blocks, 3)
	if blocks.RowBands() != 3 || blocks.ColBands() != 3 {
		t.Errorf("blocks scheme = %dx%d bands", blocks.RowBands(), blocks.ColBands())
	}
	if rows.NRows() != 20 || rows.NCols() != 6 {
		t.Error("shape wrong")
	}
	for _, s := range []Scheme{Rows, Cols, Blocks, Scheme(9)} {
		if s.String() == "" {
			t.Error("scheme name empty")
		}
	}
}

func TestGatherRoundTrip(t *testing.T) {
	df := frame(t, 33, 5)
	for _, scheme := range []Scheme{Rows, Cols, Blocks} {
		pf := New(df, scheme, 4)
		back, err := pf.ToFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(df) {
			t.Errorf("scheme %v round trip failed", scheme)
		}
	}
}

func TestMoreBandsThanRowsClamps(t *testing.T) {
	df := frame(t, 2, 2)
	pf := New(df, Rows, 16)
	if pf.RowBands() > 2 {
		t.Errorf("bands = %d for 2 rows", pf.RowBands())
	}
	back, err := pf.ToFrame()
	if err != nil || !back.Equal(df) {
		t.Error("tiny frame round trip failed")
	}
}

func TestMapBlocksAsyncOverBlockGrid(t *testing.T) {
	df := frame(t, 16, 4)
	pf := New(df, Blocks, 2)
	pool := exec.NewPool(2)
	defer pool.Close()
	out := pf.MapBlocksAsync(pool, exec.NewGroup(), func(blk *core.DataFrame) (*core.DataFrame, error) {
		return algebra.MapFrame(blk, algebra.IsNullFn())
	})
	got, err := out.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.NRows() != 16 || got.Value(0, 0).Bool() {
		t.Error("mapblocks wrong")
	}
}

func TestMapBlocksAsyncRowBandSelection(t *testing.T) {
	df := frame(t, 30, 3)
	pf := New(df, Rows, 5)
	pool := exec.NewPool(4)
	defer pool.Close()
	out := pf.MapBlocksAsync(pool, exec.NewGroup(), func(band *core.DataFrame) (*core.DataFrame, error) {
		return algebra.SelectRows(band, func(r expr.Row) bool { return r.Value(0).Int()%2 == 0 }), nil
	})
	got, err := out.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.NRows() != 15 {
		t.Errorf("rows = %d", got.NRows())
	}
}

func TestBlockTransposeMatchesKernel(t *testing.T) {
	df := frame(t, 12, 7)
	pool := exec.NewPool(4)
	defer pool.Close()
	pf := New(df, Blocks, 3)
	tp, err := pf.Transpose(pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tp.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	want, err := algebra.TransposeFrame(df, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("block transpose != kernel transpose:\n%s\nvs\n%s", got, want)
	}
	// Grid shape swaps.
	if tp.RowBands() != pf.ColBands() || tp.ColBands() != pf.RowBands() {
		t.Error("grid metadata should swap")
	}
}

func TestHStackMismatch(t *testing.T) {
	a := frame(t, 3, 2)
	b := frame(t, 4, 2)
	if _, err := HStack(a, b); err == nil {
		t.Error("row mismatch should fail")
	}
	single, err := HStack(a)
	if err != nil || single != a {
		t.Error("single hstack should pass through")
	}
	empty, err := HStack()
	if err != nil || empty.NRows() != 0 {
		t.Error("empty hstack wrong")
	}
}

func TestFromGridValidation(t *testing.T) {
	a := frame(t, 3, 2)
	if _, err := FromGrid([][]*core.DataFrame{{a}, {a, a}}); err == nil {
		t.Error("ragged grid should fail")
	}
	if _, err := FromGrid([][]*core.DataFrame{{a, frame(t, 4, 2)}}); err == nil {
		t.Error("row-count mismatch in band should fail")
	}
	empty, err := FromGrid(nil)
	if err != nil || empty.NRows() != 0 {
		t.Error("empty grid should wrap Empty frame")
	}
}

func TestRepartitionAndEnsureSingle(t *testing.T) {
	df := frame(t, 24, 6)
	pf := New(df, Blocks, 3)
	rows, err := pf.Repartition(Rows, 4)
	if err != nil || rows.ColBands() != 1 || rows.RowBands() != 4 {
		t.Error("repartition wrong")
	}
	single, err := pf.EnsureSingleColBand()
	if err != nil || single.ColBands() != 1 {
		t.Error("ensure single col band wrong")
	}
	got, err := single.ToFrame()
	if err != nil || !got.Equal(df) {
		t.Error("ensure single round trip failed")
	}
	// Already single: identity.
	same, err := single.EnsureSingleColBand()
	if err != nil || same != single {
		t.Error("already-single should pass through")
	}
}

func TestEmptyFrameAllSchemes(t *testing.T) {
	empty := core.Empty()
	for _, scheme := range []Scheme{Rows, Cols, Blocks} {
		pf := New(empty, scheme, 4)
		if pf.RowBands() != 1 || pf.ColBands() != 1 {
			t.Errorf("scheme %v: empty frame should be a single band, got %dx%d", scheme, pf.RowBands(), pf.ColBands())
		}
		back, err := pf.ToFrame()
		if err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		if back.NRows() != 0 || back.NCols() != 0 {
			t.Errorf("scheme %v: empty round trip = %dx%d", scheme, back.NRows(), back.NCols())
		}
	}
}

func TestSingleRowAndSingleColumn(t *testing.T) {
	row := frame(t, 1, 5)
	col := frame(t, 7, 1)
	for _, scheme := range []Scheme{Rows, Cols, Blocks} {
		for _, df := range []*core.DataFrame{row, col} {
			pf := New(df, scheme, 8)
			if pf.RowBands() > df.NRows() || pf.ColBands() > df.NCols() {
				t.Errorf("scheme %v: bands %dx%d exceed shape %dx%d",
					scheme, pf.RowBands(), pf.ColBands(), df.NRows(), df.NCols())
			}
			back, err := pf.ToFrame()
			if err != nil {
				t.Fatal(err)
			}
			if !back.Equal(df) {
				t.Errorf("scheme %v: single-row/col round trip failed", scheme)
			}
		}
	}
}

func TestSchemeMovementRoundTrips(t *testing.T) {
	df := frame(t, 18, 6)
	// Rows → Cols → Blocks → Rows: every repartition preserves content.
	pf := New(df, Rows, 3)
	for _, step := range []struct {
		scheme Scheme
		bands  int
	}{{Cols, 3}, {Blocks, 2}, {Rows, 4}, {Blocks, 3}, {Cols, 2}, {Rows, 1}} {
		var err error
		pf, err = pf.Repartition(step.scheme, step.bands)
		if err != nil {
			t.Fatalf("repartition to %v: %v", step.scheme, err)
		}
		back, err := pf.ToFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(df) {
			t.Fatalf("content changed after moving to %v", step.scheme)
		}
	}
}

func TestDeferredFrameResolvesLazily(t *testing.T) {
	df := frame(t, 12, 3)
	pool := exec.NewPool(2)
	defer pool.Close()
	materialized := New(df, Rows, 3)
	gate := make(chan struct{})
	grid := make([][]*exec.Future, 3)
	for r := range grid {
		r := r
		grid[r] = []*exec.Future{pool.Submit(func() (any, error) {
			<-gate
			return materialized.Block(r, 0), nil
		})}
	}
	pf, err := Deferred(grid)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Ready() {
		t.Error("gated frame should not be ready")
	}
	if pf.RowBands() != 3 || pf.ColBands() != 1 {
		t.Error("deferred shape wrong")
	}
	close(gate)
	if err := pf.Resolve(); err != nil {
		t.Fatal(err)
	}
	if !pf.Ready() {
		t.Error("resolved frame should be ready")
	}
	back, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(df) {
		t.Error("deferred round trip failed")
	}
}

func TestDeferredFrameErrorSurfacesAtResolve(t *testing.T) {
	df := frame(t, 8, 2)
	blk := New(df, Rows, 2)
	grid := [][]*exec.Future{
		{exec.Resolved(blk.Block(0, 0))},
		{exec.Failed(fmt.Errorf("block task died"))},
	}
	pf, err := Deferred(grid)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Resolve(); err == nil {
		t.Error("failed block should surface at Resolve")
	}
	if _, err := pf.ToFrame(); err == nil {
		t.Error("failed block should surface at ToFrame")
	}
	if _, err := pf.BlockErr(1, 0); err == nil {
		t.Error("BlockErr should report the task error")
	}
	if got := pf.Block(1, 0); got.NRows() != 0 {
		t.Error("Block on failed future should degrade to empty")
	}
}

func TestDeferredRaggedGridRejected(t *testing.T) {
	a := exec.Resolved(frame(t, 2, 2))
	if _, err := Deferred([][]*exec.Future{{a}, {a, a}}); err == nil {
		t.Error("ragged deferred grid should fail")
	}
	empty, err := Deferred(nil)
	if err != nil || empty.NRows() != 0 {
		t.Error("empty deferred grid should wrap Empty frame")
	}
}

func TestDeferredShapeMismatchCaughtAtResolve(t *testing.T) {
	// Blocks that disagree on row count within a band pass construction
	// (futures are opaque) but must fail validation at Resolve.
	grid := [][]*exec.Future{{
		exec.Resolved(frame(t, 3, 1)),
		exec.Resolved(frame(t, 4, 1)),
	}}
	pf, err := Deferred(grid)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Resolve(); err == nil {
		t.Error("row-count mismatch should fail Resolve")
	}
}

func TestMapBlocksAsyncPipelines(t *testing.T) {
	df := frame(t, 16, 4)
	pool := exec.NewPool(2)
	defer pool.Close()
	pf := New(df, Blocks, 2)
	g := exec.NewGroup()
	// Two chained async maps: no block waits for its sibling between the
	// two stages.
	step1 := pf.MapBlocksAsync(pool, g, func(blk *core.DataFrame) (*core.DataFrame, error) {
		return algebra.MapFrame(blk, algebra.IsNullFn())
	})
	step2 := step1.MapBlocksAsync(pool, g, func(blk *core.DataFrame) (*core.DataFrame, error) {
		return algebra.MapFrame(blk, algebra.IsNullFn())
	})
	got, err := step2.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if got.NRows() != 16 || got.Value(0, 0).Bool() {
		t.Error("chained async maps wrong")
	}
}

func TestMapBlocksAsyncErrorCancelsGroup(t *testing.T) {
	df := frame(t, 8, 2)
	pool := exec.NewPool(2)
	defer pool.Close()
	pf := New(df, Rows, 2)
	g := exec.NewGroup()
	out := pf.MapBlocksAsync(pool, g, func(blk *core.DataFrame) (*core.DataFrame, error) {
		return nil, fmt.Errorf("block failure")
	})
	if _, err := out.ToFrame(); err == nil {
		t.Error("async map error should surface at gather")
	}
	if g.Err() == nil {
		t.Error("async map error should cancel the group")
	}
}

func TestRowBandLabelsPreserved(t *testing.T) {
	df := frame(t, 10, 2)
	labels := make([]types.Value, 10)
	for i := range labels {
		labels[i] = types.String(fmt.Sprintf("L%d", i))
	}
	relabeled, err := df.WithRowLabels(vector.FromValues(types.Object, labels))
	if err != nil {
		t.Fatal(err)
	}
	pf := New(relabeled, Rows, 3)
	back, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if back.RowLabels().Value(9).Str() != "L9" {
		t.Error("labels should survive partitioning")
	}
}

// TestSplitRowsRoutesAndPreservesOrder: SplitRows is the shuffle's routing
// primitive — rows land in their assigned bucket, in input order, with
// labels travelling alongside, and empty buckets keep the frame's arity.
func TestSplitRowsRoutesAndPreservesOrder(t *testing.T) {
	df := frame(t, 12, 3)
	assign := make([]int, 12)
	for i := range assign {
		assign[i] = i % 3
	}
	buckets, err := SplitRows(df, assign, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	for b := 0; b < 3; b++ {
		blk := buckets[b]
		if blk.NRows() != 4 || blk.NCols() != 3 {
			t.Fatalf("bucket %d shape = %dx%d", b, blk.NRows(), blk.NCols())
		}
		for i := 0; i < blk.NRows(); i++ {
			wantRow := b + 3*i // input order within the bucket
			if got := blk.Value(i, 0).Int(); got != int64(wantRow*3) {
				t.Errorf("bucket %d row %d = %d, want %d", b, i, got, wantRow*3)
			}
			if got := blk.RowLabels().Value(i).Int(); got != int64(wantRow) {
				t.Errorf("bucket %d label %d = %d, want %d", b, i, got, wantRow)
			}
		}
	}
	// Bucket 3 received nothing but still matches the frame's arity.
	if buckets[3].NRows() != 0 || buckets[3].NCols() != 3 {
		t.Errorf("empty bucket shape = %dx%d", buckets[3].NRows(), buckets[3].NCols())
	}
}

// TestSplitRowsViewsShareStorage: the bucket frames are views — no cell
// copies — yet behave like real frames under slicing and gathering.
func TestSplitRowsViewsShareStorage(t *testing.T) {
	df := frame(t, 10, 2)
	assign := make([]int, 10)
	for i := range assign {
		assign[i] = i / 5
	}
	buckets, err := SplitRows(df, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	// VStacking the buckets in order reproduces the original rows.
	back, err := algebra.VStackFrames(buckets[0], buckets[1])
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(df) {
		t.Error("split+vstack should round-trip")
	}
	// Views slice and take like any vector.
	sliced := buckets[1].SliceRows(1, 3)
	if sliced.Value(0, 0).Int() != df.Value(6, 0).Int() {
		t.Error("view slice wrong")
	}
	taken := buckets[1].TakeRows([]int{2, 0})
	if taken.Value(0, 0).Int() != df.Value(7, 0).Int() {
		t.Error("view take wrong")
	}
}

// TestSplitRowsValidation: bad assignments error instead of corrupting the
// grid.
func TestSplitRowsValidation(t *testing.T) {
	df := frame(t, 4, 1)
	if _, err := SplitRows(df, []int{0, 1}, 2); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := SplitRows(df, []int{0, 0, 0, 5}, 2); err == nil {
		t.Error("out-of-range bucket should error")
	}
	if _, err := SplitRows(df, nil, 0); err == nil {
		t.Error("zero buckets should error")
	}
}

// TestSplitRowsViewInducesDomains: a view over a raw (Σ*) column still
// induces its domain correctly — the shuffle must not detype raw frames.
func TestSplitRowsViewInducesDomains(t *testing.T) {
	raw := core.MustFromRecords([]string{"n"}, [][]any{{"1"}, {"2"}, {"3"}, {"4"}})
	buckets, err := SplitRows(raw, []int{0, 1, 0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for b, blk := range buckets {
		if d := blk.Domain(0); d != types.Int {
			t.Errorf("bucket %d induced %v, want int", b, d)
		}
		if blk.Value(1, 0).Int() != int64(b+3) {
			t.Errorf("bucket %d typed value wrong", b)
		}
	}
}

// TestSplitRowsRoutesResolvedColumns: a raw column the band already induced
// routes as views of its typed form with the domain declared — the band's
// domain, not whatever the piece's few rows would induce — while a column
// nobody touched stays raw and lazy. The band's string column induces
// Category over its 20 rows; a 10-row piece on its own would induce Object.
func TestSplitRowsRoutesResolvedColumns(t *testing.T) {
	n, s, untouched := make([]string, 20), make([]string, 20), make([]string, 20)
	assign := make([]int, 20)
	for i := range n {
		n[i], s[i], untouched[i] = fmt.Sprint(i), []string{"a", "b"}[i%2], fmt.Sprint(i)
		assign[i] = i % 2
	}
	n[1] = "0.5" // bucket 1 alone sees the fraction; the band says float for both
	band := core.MustNew([]string{"n", "s", "untouched"}, []vector.Vector{
		vector.NewObjectFromStrings(n), vector.NewObjectFromStrings(s), vector.NewObjectFromStrings(untouched),
	}).WithCache(schema.NewCache())
	band.TypedCol(0)
	band.TypedCol(1)
	_, before := band.Cache().Stats()

	pieces, err := SplitRows(band, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	for b, p := range pieces {
		if _, _, _, ok := vector.FloatData(p.Col(0)); !ok || p.DeclaredDomain(0) != types.Float {
			t.Errorf("bucket %d: n routed as %T declared %v, want float storage", b, p.Col(0), p.DeclaredDomain(0))
		}
		if _, _, _, _, ok := vector.DictData(p.Col(1)); !ok || p.DeclaredDomain(1) != types.Category {
			t.Errorf("bucket %d: s routed as %T declared %v, want the band's dictionary", b, p.Col(1), p.DeclaredDomain(1))
		}
		if p.Col(2).Domain() != types.Object || p.DeclaredDomain(2) != types.Unspecified {
			t.Errorf("bucket %d: the untouched column should stay raw and undeclared", b)
		}
		p.TypedCol(0)
		p.TypedCol(1)
	}
	if _, after := band.Cache().Stats(); after != before {
		t.Errorf("reading the routed columns induced %d more times", after-before)
	}
	if pieces[0].Value(0, 0).Float() != 0 || pieces[1].Value(0, 0).Float() != 0.5 {
		t.Error("routed values wrong")
	}
}
