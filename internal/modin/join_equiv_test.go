package modin

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/vector"
)

// assertIdentical requires a join result to equal eager's cell for cell:
// values, labels and declared domains (sameFrame).
func assertIdentical(t *testing.T, what string, want, got *core.DataFrame) {
	t.Helper()
	if !sameFrame(want, got) {
		t.Fatalf("%s disagrees with eager:\neager %v:\n%s\n%s %v:\n%s", what, want.Domains(), want, what, got.Domains(), got)
	}
}

// joinEquivFrames are the inputs of the join equivalence table. The left
// keys repeat, are null every 13th row and include keys (7, 8) the right
// lacks; the right keys repeat about eight-fold, are null every 11th row and
// include a key (20) the left lacks. Both sides carry a, b (the composite
// key), k and v, so every join suffixes some of them _x/_y. The left's gate
// column is null on its first half, so a selection on it empties whole
// bands. rightFloat is right with a Float key column.
func joinEquivFrames() (left, right, rightFloat *core.DataFrame) {
	lrec := make([][]any, 80)
	for i := range lrec {
		var k, gate any = i % 9, 1
		if i%13 == 0 {
			k = nil
		}
		if i < 40 {
			gate = nil
		}
		lrec[i] = []any{i, k, i % 4, []string{"p", "q", "r"}[i%3], float64(i) * 0.5, gate}
	}
	rrec := make([][]any, 60)
	frec := make([][]any, 60)
	for i := range rrec {
		var k, kf any = i % 7, float64(i % 7)
		switch {
		case i%11 == 0:
			k, kf = nil, nil
		case i%17 == 0:
			k, kf = 20, 20.0
		case i%10 == 0:
			kf = float64(i%7) + 0.5
		}
		rrec[i] = []any{k, i % 5, []string{"p", "q", "r", "s"}[i%4], i * 10, fmt.Sprintf("w%d", i)}
		frec[i] = append([]any{kf}, rrec[i][1:]...)
	}
	cols := []string{"k", "a", "b", "v", "w"}
	return core.MustFromRecords([]string{"id", "k", "a", "b", "v", "gate"}, lrec),
		core.MustFromRecords(cols, rrec), core.MustFromRecords(cols, frec)
}

// stringKeyed is df with its column b recoded with a declared domain: as
// Dict codes over a table that also holds an unused string, or as Object
// strings, null every nulls-th row either way. A Dict b joined to an Object
// b routes one side per code and the other in row chunks.
func stringKeyed(t *testing.T, df *core.DataFrame, dict bool, nulls int) *core.DataFrame {
	t.Helper()
	j := df.ColIndex("b")
	n := df.NRows()
	data, null := make([]string, n), make([]bool, n)
	for i := range data {
		data[i], null[i] = df.Value(i, j).Str(), i%nulls == 0
	}
	var col vector.Vector = vector.NewObject(data, null)
	if dict {
		table := []string{"unused", "p", "q", "r", "s"}
		codes := make([]int32, n)
		for i, v := range data {
			codes[i] = int32(slices.Index(table, v))
		}
		col = vector.NewDict(codes, table, null)
	}
	out, err := df.WithColumn(j, col, col.Domain())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShuffledJoinMatchesEagerCellForCell runs every inner and left join
// shape through the anchored probe on every engine shape — bands 1, 2 and
// 7, a one-worker pool, and a one-cell spill budget — and requires it to
// equal the eager join cell for cell.
func TestShuffledJoinMatchesEagerCellForCell(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	one := exec.NewPool(1)
	defer one.Close()

	lf, rf, ff := joinEquivFrames()
	left, right, rightFloat := &algebra.Source{DF: lf, Name: "l"}, &algebra.Source{DF: rf, Name: "r"}, &algebra.Source{DF: ff, Name: "rf"}
	none := func(expr.Row) bool { return false }
	gated := &algebra.Selection{Input: left, Pred: expr.ColNotNull("gate"), Desc: "gate not null"}
	noLeft := &algebra.Selection{Input: left, Pred: none, Desc: "none"}
	noRight := &algebra.Selection{Input: right, Pred: none, Desc: "none"}
	// Right rows 0-4 and 55-59 only: at three or more bands the bands
	// between them are empty, so band first rows repeat.
	ends := &algebra.Selection{Input: right, Desc: "v < 50 or v >= 550", Pred: func(r expr.Row) bool {
		v := r.ByName("v").Int()
		return v < 50 || v >= 550
	}}
	dictLeft := &algebra.Source{DF: stringKeyed(t, lf, true, 13), Name: "ld"}
	objectRight := &algebra.Source{DF: stringKeyed(t, rf, false, 11), Name: "ro"}
	shapes := []struct {
		name        string
		left, right algebra.Node
		on          []string
	}{
		{"duplicate null unmatched keys", left, right, []string{"k"}},
		{"composite key", left, right, []string{"a", "b"}},
		{"int vs float key", left, rightFloat, []string{"k"}},
		{"empty bands", gated, right, []string{"k"}},
		{"empty left", noLeft, right, []string{"k"}},
		{"empty right", left, noRight, []string{"k"}},
		{"dict vs object key", dictLeft, objectRight, []string{"b"}},
		{"empty right bands between full ones", left, ends, []string{"k"}},
	}
	engines := []struct {
		name string
		opts []Option
	}{
		{"bands 1", []Option{WithBands(1)}},
		{"bands 2", []Option{WithBands(2)}},
		{"bands 7", []Option{WithBands(7)}},
		{"1 worker bands 2", []Option{WithPool(one), WithBands(2)}},
		{"1 worker bands 7", []Option{WithPool(one), WithBands(7)}},
		{"spill 1 bands 3", []Option{WithBands(3), WithShuffleSpillBudget(1)}},
	}
	for _, s := range shapes {
		for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
			plan := &algebra.Join{Left: s.left, Right: s.right, Kind: kind, On: s.on}
			want, err := eager.New().Execute(plan)
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range engines {
				t.Run(fmt.Sprintf("%s %v %s", s.name, kind, eng.name), func(t *testing.T) {
					e := New(eng.opts...)
					withDeadline(t, 30*time.Second, func() {
						got, err := e.Execute(plan)
						if err != nil {
							t.Fatal(err)
						}
						assertIdentical(t, "shuffled", want, got)
					})
					if err := e.ReleaseSpill(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "dfstore-*")); len(left) != 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
}

// TestStreamedLeftJoinMatchesEager joins a CSV file scan, streamed in
// 16-row bands, to an in-memory right side under a one-cell spill budget:
// every streamed band probes the one table, and the result equals the eager
// join cell for cell.
func TestStreamedLeftJoinMatchesEager(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	lf, rf, _ := joinEquivFrames()
	numeric, err := algebra.Project(lf, []string{"id", "k", "a", "v"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "left.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := numeric.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	scan := &algebra.Scan{Name: "csv", Path: path, Options: core.DefaultCSVOptions(), SizeHint: info.Size(), BandRows: 16}
	if scan.Columns, err = scan.Probe(); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []expr.JoinKind{expr.JoinInner, expr.JoinLeft} {
		plan := &algebra.Join{Left: scan, Right: &algebra.Source{DF: rf, Name: "r"}, Kind: kind, On: []string{"k"}}
		want, err := eager.New().Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		e := New(WithBands(3), WithShuffleSpillBudget(1))
		got, err := e.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "shuffled", want, got)
		if err := e.ReleaseSpill(); err != nil {
			t.Fatal(err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "dfstore-*")); len(left) != 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
}
