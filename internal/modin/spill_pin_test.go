package modin

import (
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/vector"
)

// mustFrame builds a single-column int frame over data.
func mustFrame(t *testing.T, data []int64) *core.DataFrame {
	t.Helper()
	df, err := core.New([]string{"v"}, []vector.Vector{vector.NewInt(data, nil)})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return df
}

// admitResident admits piece through the engine's ledger, requires it to
// stay in memory, and returns the frame the ledger holds for the merge.
func admitResident(t *testing.T, e *Engine, piece *core.DataFrame) *core.DataFrame {
	t.Helper()
	take, err := e.spill.Admit(piece)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if n := e.Stats().SpilledPieces.Load(); n != 0 {
		t.Fatalf("%d pieces written out under a generous budget", n)
	}
	admitted, err := take()
	if err != nil {
		t.Fatalf("take: %v", err)
	}
	return admitted
}

// TestResidentPieceDetachesFromBand is the white-box half of the pinning
// regression: a resident piece admitted from a Slice window must not share
// storage with the band it was sliced from. Compact would leave the slice
// aliasing the band's arrays; Detach copies.
func TestResidentPieceDetachesFromBand(t *testing.T) {
	data := make([]int64, 4096)
	for i := range data {
		data[i] = int64(i)
	}
	band := mustFrame(t, data)
	piece := band.SliceRows(16, 32)

	e := New(WithShuffleSpillBudget(1 << 20))
	admitted := admitResident(t, e, piece)
	got := admitted.TypedCol(0).(*vector.Int).RawData()
	if &got[0] == &data[16] {
		t.Fatal("resident piece aliases the source band's backing array")
	}
	if admitted.NRows() != 16 {
		t.Fatalf("piece rows = %d, want 16", admitted.NRows())
	}
	for i, v := range got {
		if v != int64(16+i) {
			t.Fatalf("piece[%d] = %d, want %d", i, v, 16+i)
		}
	}
}

// TestResidentPieceDoesNotPinBand is the HeapAlloc half: admit a tiny slice
// of a large band as a resident piece, drop the band, and require the heap
// to shrink back near its pre-band baseline. If Admit kept the slice
// aliased (the pre-Detach behavior), the whole 32 MB band would stay live
// behind the 16-row piece and the final HeapAlloc would sit a band above
// the baseline. Thresholds are generous (a quarter band) to stay far from
// GC noise.
func TestResidentPieceDoesNotPinBand(t *testing.T) {
	const bandRows = 1 << 22 // 32 MB of int64

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	baseline := m.HeapAlloc

	e := New(WithShuffleSpillBudget(1 << 20))
	admitted := admitResident(t, e, mustFrame(t, make([]int64, bandRows)).SliceRows(0, 16))
	// The band frame is now unreachable; only the admitted piece survives.
	runtime.GC()
	runtime.ReadMemStats(&m)
	const slack = bandRows * 8 / 4
	if m.HeapAlloc > baseline+slack {
		t.Fatalf("HeapAlloc %d exceeds baseline %d by more than %d bytes: band pinned by resident piece",
			m.HeapAlloc, baseline, uint64(slack))
	}
	runtime.KeepAlive(admitted)
}

// TestPinnedPiecesAreNotBookedSpilled: a piece with a Composite column has
// no block form, so the store keeps it in memory. Every routed piece of a
// SORT over a COLLECT result is such a piece: under a one-cell budget the
// sort must still match the eager one, and none of its pieces may count as
// spilled.
func TestPinnedPiecesAreNotBookedSpilled(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	collected, err := eager.New().Execute(&algebra.GroupBy{
		Input: &algebra.Source{DF: testFrame(120)},
		Spec:  expr.GroupBySpec{Keys: []string{"val"}, Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := &algebra.Sort{Input: &algebra.Source{DF: collected}, Order: expr.SortOrder{{Col: "val", Desc: true}}}
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithBands(3), WithShuffleSpillBudget(1))
	defer e.ReleaseSpill()
	got, err := e.Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Composite cells never compare Equal, not even to themselves; a sort
	// moves them by reference, so they must come back as the very same
	// sub-frames.
	if !want.DropColumn(1).Equal(got.DropColumn(1)) {
		t.Fatalf("engines disagree:\neager:\n%s\nmodin:\n%s", want, got)
	}
	for i := 0; i < want.NRows(); i++ {
		if want.Value(i, 1).CompositePayload() != got.Value(i, 1).CompositePayload() {
			t.Fatalf("row %d: collected cell is not the eager sort's", i)
		}
	}
	if n := e.Stats().SpilledPieces.Load(); n != 0 {
		t.Errorf("%d pinned pieces booked as spilled", n)
	}
}

// TestLedgerHoldsPinnedPieceResident is the white-box half of the pinned-piece
// fix: a piece the store cannot write out is booked as resident until its
// merge takes it and leaves no entry behind in the store, while a plain piece
// past the same one-cell budget still goes to disk.
func TestLedgerHoldsPinnedPieceResident(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	pinned, err := eager.New().Execute(&algebra.GroupBy{
		Input: &algebra.Source{DF: testFrame(30)},
		Spec:  expr.GroupBySpec{Keys: []string{"dept"}, Aggs: []expr.AggSpec{{Col: "id", Agg: expr.AggCollect, As: "ids"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := New(WithShuffleSpillBudget(1))
	defer e.ReleaseSpill()
	take, err := e.spill.Admit(pinned)
	if err != nil {
		t.Fatal(err)
	}
	cells := pinned.NRows()*pinned.NCols() + 1
	if e.spill.resident != cells {
		t.Fatalf("resident = %d cells, want the pinned piece's %d", e.spill.resident, cells)
	}
	if e.spill.store.Contains("shuffle-1") {
		t.Error("the pinned piece was left in the store")
	}
	got, err := take()
	if err != nil {
		t.Fatal(err)
	}
	if got.Value(0, 1).CompositePayload() != pinned.Value(0, 1).CompositePayload() {
		t.Error("take did not return the admitted piece")
	}
	if e.spill.resident != 0 {
		t.Errorf("resident = %d cells after the take, want 0", e.spill.resident)
	}

	plain := mustFrame(t, []int64{1, 2, 3})
	take, err = e.spill.Admit(plain)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.Stats().SpilledPieces.Load(); n != 1 || e.spill.resident != 0 {
		t.Fatalf("plain piece: %d spilled, %d resident cells; want 1 and 0", n, e.spill.resident)
	}
	if got, err := take(); err != nil || !got.Equal(plain) {
		t.Fatalf("plain piece read back as %v, %v", got, err)
	}
}
