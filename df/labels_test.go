package df

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPositionalLabelsMatchBaseline runs statements whose results carry
// positional row labels — a merge's renumbered labels, a groupby's restore,
// a scan's band labels kept through a filter and a sort — on the default
// engine (MODIN, or the cluster under DF_CLUSTER_WORKERS) and on the
// baseline, over the whole file read and streamed from it in bands of 1, 7
// and 64 rows with and without a spill budget of one cell; and a second
// statement over a collected merge, and ResetIndex moving its labels into a
// column. Every result must equal the baseline's, labels included.
func TestPositionalLabelsMatchBaseline(t *testing.T) {
	text := streamCSV(300)
	path := filepath.Join(t.TempDir(), "labels.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	floors := MustNew([]string{"dept", "floor"}, [][]any{{"eng", 3}, {"ops", 1}, {"eng", 4}})
	statements := map[string]func(*Query) *Query{
		"merge":      func(q *Query) *Query { return q.Merge(floors.Lazy(), "dept") },
		"merge/left": func(q *Query) *Query { return q.MergeKind(floors.Lazy(), "left", "dept") },
		"groupby":    func(q *Query) *Query { return q.GroupBy("dept").Sum("val") },
		"filter":     func(q *Query) *Query { return q.Where(NotNull("val")) },
		"sort":       func(q *Query) *Query { return q.SortValues("val") },
	}
	base := NewBaselineEngine()
	for name, stmt := range statements {
		t.Run(name, func(t *testing.T) {
			want := mustCollect(t, stmt(inMemory(t, text).WithEngine(base)))
			if got := mustCollect(t, stmt(inMemory(t, text))); !want.Equal(got) {
				t.Fatalf("whole read:\n%s\nwant:\n%s", got, want)
			}
			for _, bandRows := range []int{1, 7, 64} {
				for _, budget := range []int{0, 1} {
					q := ScanCSVFile(path).WithScanBandRows(bandRows)
					if budget > 0 {
						q = q.WithSpillBudget(budget)
					}
					if got := mustCollect(t, stmt(q)); !want.Equal(got) {
						t.Fatalf("band rows %d, spill budget %d:\n%s\nwant:\n%s", bandRows, budget, got, want)
					}
				}
			}
		})
	}
	want := mustCollect(t, statements["merge"](inMemory(t, text).WithEngine(base)))
	got := mustCollect(t, statements["merge"](inMemory(t, text)))
	// A collected frame runs its next statement on the engine it came from.
	again := func(d *DataFrame) *DataFrame { return mustCollect(t, d.Lazy().GroupBy("floor").Size()) }
	if w, g := again(want), again(got); !w.Equal(g) {
		t.Fatalf("a groupby over the collected merge:\n%s\nwant:\n%s", g, w)
	}
	w, err := want.ResetIndex("pos")
	if err != nil {
		t.Fatal(err)
	}
	g, err := got.ResetIndex("pos")
	if err != nil {
		t.Fatal(err)
	}
	if !w.Equal(g) {
		t.Fatalf("ResetIndex over the collected merge:\n%s\nwant:\n%s", g, w)
	}
}
