package modin

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/vector"
)

// storageCap is the capacity of the storage behind a typed column, or -1
// for a kind the test frames do not hold.
func storageCap(v vector.Vector) int {
	if data, _, _, ok := vector.IntData(v); ok {
		return cap(data)
	}
	if data, _, _, ok := vector.FloatData(v); ok {
		return cap(data)
	}
	if data, _, _, ok := vector.ObjectData(v); ok {
		return cap(data)
	}
	if codes, _, _, _, ok := vector.DictData(v); ok {
		return cap(codes)
	}
	switch c := v.(type) {
	case *vector.Bool:
		return cap(c.RawData())
	case *vector.Datetime:
		return cap(c.RawData())
	}
	return -1
}

// assertOwnStorage requires every column of band, row labels included, to
// be flat storage holding exactly the band's rows: not a view, which
// Collect's VStackFrames would build cell by cell, and not a slice that
// keeps a larger frame alive.
func assertOwnStorage(t *testing.T, what string, band *core.DataFrame) {
	t.Helper()
	for j, col := range append(append([]vector.Vector(nil), band.Columns()...), band.RowLabels()) {
		if _, _, ok := vector.ViewParts(col); ok {
			t.Errorf("%s: column %d is a view", what, j)
		} else if c := storageCap(col); c != band.NRows() {
			t.Errorf("%s: column %d holds storage for %d rows, the band has %d", what, j, c, band.NRows())
		}
	}
}

// TestSortBandsHoldOwnStorage: every band a SORT hands on holds its own
// storage. With one key on every row all rows route to bucket 0, so six of
// seven buckets receive nothing; sorted by id most buckets receive a single
// run. MergeSortBucket is also called on one run between empty pieces.
func TestSortBandsHoldOwnStorage(t *testing.T) {
	in := sortKeysFrame(90)
	for _, order := range []expr.SortOrder{{{Col: "same"}}, {{Col: "id"}}} {
		pf, err := New(WithBands(7)).ExecutePartitioned(&algebra.Sort{Input: &algebra.Source{DF: in}, Order: order})
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.Resolve(); err != nil {
			t.Fatal(err)
		}
		empty := 0
		for r := 0; r < pf.RowBands(); r++ {
			band := pf.Band(r)
			if band.NRows() == 0 {
				empty++
			}
			assertOwnStorage(t, fmt.Sprintf("SORT%v band %d", order, r), band)
		}
		if order[0].Col == "same" && empty != 6 {
			t.Errorf("SORT%v: %d empty bands, want 6", order, empty)
		}
	}
	node := &algebra.Sort{Order: expr.SortOrder{{Col: "fk"}}}
	pieces, err := PartitionSortedBand(in, node, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := pieces[0]
	if _, _, ok := vector.ViewParts(run.Col(0)); !ok {
		t.Fatal("PartitionSortedBand: the run is not a view over the band")
	}
	none := in.SliceRows(0, 0)
	for _, c := range [][]*core.DataFrame{{none, run, none}, {none, none}} {
		out, err := MergeSortBucket(c, node)
		if err != nil {
			t.Fatal(err)
		}
		assertOwnStorage(t, fmt.Sprintf("MergeSortBucket of %d rows", out.NRows()), out)
	}
}

// TestStreamedSortComparesAcrossTables sorts a streamed scan by a string
// key that each band induces into its own category table, so the bands'
// runs reach a merge with words that do not compare and the merge compares
// cells across tables. The result must match the oracle bit for bit.
func TestStreamedSortComparesAcrossTables(t *testing.T) {
	// A band induces a category from 16 rows holding at most a tenth as many
	// strings, so bands of 48 rows over four strings do.
	const rows, bandRows = 240, 48
	id, name := make([]int64, rows), make([]string, rows)
	fruit := []string{"plum", "fig", "apple", "kiwi"}
	for i := range id {
		// Each band meets the strings in a different order.
		id[i], name[i] = int64(i), fruit[(i+i/bandRows)%len(fruit)]
	}
	scan := scanOver(t, core.MustNew([]string{"id", "name"}, []vector.Vector{
		vector.NewInt(id, nil), vector.NewObjectFromStrings(name),
	}), bandRows)

	pf, err := New(WithBands(7)).ExecutePartitioned(scan)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Resolve(); err != nil {
		t.Fatal(err)
	}
	var tables [][]string
	for r := 0; r < pf.RowBands(); r++ {
		_, dict, _, _, ok := vector.DictData(pf.Band(r).TypedCol(1))
		if !ok {
			t.Fatalf("band %d: name is not induced as a category", r)
		}
		tables = append(tables, dict)
	}
	if &tables[0][0] == &tables[1][0] {
		t.Fatal("bands 0 and 1 share one category table")
	}

	for _, order := range []expr.SortOrder{{{Col: "name"}, {Col: "id", Desc: true}}, {{Col: "name", Desc: true}}} {
		for _, bands := range []int{2, 7} {
			t.Run(fmt.Sprintf("%v/bands=%d", order, bands), func(t *testing.T) {
				want, got := assertSortMatchesOracle(t, New(WithBands(bands)), &algebra.Sort{Input: scan, Order: order})
				if d := bitDiff(want, got, true); d != "" {
					t.Fatalf("SORT%v: %s", order, d)
				}
			})
		}
	}
}
