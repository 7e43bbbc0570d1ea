package modin

import (
	"runtime"
	"testing"

	"repro/internal/core"
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
