package partition

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
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

func TestRowBands(t *testing.T) {
	df := frame(t, 20, 6)
	rows := New(df, Rows, 4)
	if rows.RowBands() != 4 {
		t.Errorf("rows scheme = %d bands", rows.RowBands())
	}
	if rows.NRows() != 20 || rows.NCols() != 6 {
		t.Error("shape wrong")
	}
	for r := range 4 {
		if b := rows.Band(r); b.NRows() != 5 || b.NCols() != 6 {
			t.Errorf("band %d = %dx%d, want 5x6", r, b.NRows(), b.NCols())
		}
	}
	for _, s := range []Scheme{Rows, Scheme(9)} {
		if s.String() == "" {
			t.Error("scheme name empty")
		}
	}
}

func TestGatherRoundTrip(t *testing.T) {
	df := frame(t, 33, 5)
	pf := New(df, Rows, 4)
	back, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(df) {
		t.Error("round trip failed")
	}
}

// TestOneBandIsTheFrame: a frame wrapped as one band is not sliced, so a
// wide result's columns are not copied into new vectors.
func TestOneBandIsTheFrame(t *testing.T) {
	df := frame(t, 3, 7)
	if got := New(df, Rows, 1).Band(0); got != df {
		t.Error("one band should be the frame itself")
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

func TestEmptyFrame(t *testing.T) {
	pf := New(core.Empty(), Rows, 4)
	if pf.RowBands() != 1 {
		t.Errorf("empty frame should be a single band, got %d", pf.RowBands())
	}
	back, err := pf.ToFrame()
	if err != nil {
		t.Fatal(err)
	}
	if back.NRows() != 0 || back.NCols() != 0 {
		t.Errorf("empty round trip = %dx%d", back.NRows(), back.NCols())
	}
}

func TestSingleRowAndSingleColumn(t *testing.T) {
	for _, df := range []*core.DataFrame{frame(t, 1, 5), frame(t, 7, 1)} {
		pf := New(df, Rows, 8)
		if pf.RowBands() > df.NRows() {
			t.Errorf("%d bands exceed %d rows", pf.RowBands(), df.NRows())
		}
		back, err := pf.ToFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(df) {
			t.Error("single-row/col round trip failed")
		}
	}
}

func TestDeferredFrameResolvesLazily(t *testing.T) {
	df := frame(t, 12, 3)
	pool := exec.NewPool(2)
	defer pool.Close()
	materialized := New(df, Rows, 3)
	gate := make(chan struct{})
	bands := make([]*exec.Future, 3)
	for r := range bands {
		bands[r] = pool.Submit(func() (any, error) {
			<-gate
			return materialized.Band(r), nil
		})
	}
	pf := Deferred(bands)
	if pf.Ready() {
		t.Error("gated frame should not be ready")
	}
	if pf.RowBands() != 3 {
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
	pf := Deferred([]*exec.Future{
		exec.Resolved(blk.Band(0)),
		exec.Failed(fmt.Errorf("band task died")),
	})
	if err := pf.Resolve(); err == nil {
		t.Error("failed band should surface at Resolve")
	}
	if _, err := pf.ToFrame(); err == nil {
		t.Error("failed band should surface at ToFrame")
	}
	if _, err := pf.RowBand(1); err == nil {
		t.Error("RowBand should report the task error")
	}
	if got := pf.Band(1); got.NRows() != 0 {
		t.Error("Band on failed future should degrade to empty")
	}
}

func TestDeferredEmptyIsOneEmptyBand(t *testing.T) {
	empty := Deferred(nil)
	if empty.RowBands() != 1 || empty.NRows() != 0 {
		t.Error("no bands should wrap one empty frame")
	}
}

func TestDeferredShapeMismatchCaughtAtResolve(t *testing.T) {
	// Bands that disagree on their columns pass construction (futures are
	// opaque) but must fail validation at Resolve.
	pf := Deferred([]*exec.Future{
		exec.Resolved(frame(t, 3, 1)),
		exec.Resolved(frame(t, 4, 2)),
	})
	if err := pf.Resolve(); err == nil {
		t.Error("column-count mismatch should fail Resolve")
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
// buckets.
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
