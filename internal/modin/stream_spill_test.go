package modin

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// scanOver renders a frame to CSV and wraps it in a re-openable Scan node,
// the in-process stand-in for a file bigger than memory.
func scanOver(t *testing.T, df *core.DataFrame, bandRows int) *algebra.Scan {
	t.Helper()
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	data := buf.Bytes()
	return &algebra.Scan{
		Name:     "test",
		Columns:  df.ColNames(),
		Data:     data,
		Options:  core.DefaultCSVOptions(),
		SizeHint: int64(len(data)),
		BandRows: bandRows,
	}
}

// assertEngineAgreesWithEager is bothEngines with a caller-supplied engine,
// so tests can turn on spill budgets and read stats afterwards.
func assertEngineAgreesWithEager(t *testing.T, e *Engine, plan algebra.Node) *core.DataFrame {
	t.Helper()
	want, err := eager.New().Execute(plan)
	if err != nil {
		t.Fatalf("eager: %v", err)
	}
	got, err := e.Execute(plan)
	if err != nil {
		t.Fatalf("modin: %v", err)
	}
	if !want.Equal(got) {
		t.Fatalf("engines disagree:\neager:\n%s\nmodin:\n%s", want, got)
	}
	return got
}

// TestSpillGroupByMatchesInMemory forces every routed groupby piece through
// the disk pool (budget of one cell) and requires the merged result to be
// byte-equal to the in-memory path.
func TestSpillGroupByMatchesInMemory(t *testing.T) {
	e := New(WithBands(4), WithShuffleSpillBudget(1))
	assertEngineAgreesWithEager(t, e, groupByPlan(&algebra.Source{DF: testFrame(200)}))
	if got := e.Stats().SpilledPieces.Load(); got == 0 {
		t.Error("expected spilled pieces under a one-cell budget")
	}
}

// TestSpillSortMatchesInMemory spills sorted runs, which the spill
// materializes from their views, and re-resolves them at the run merge.
func TestSpillSortMatchesInMemory(t *testing.T) {
	e := New(WithBands(4), WithShuffleSpillBudget(1))
	assertEngineAgreesWithEager(t, e, sortTestPlan(&algebra.Source{DF: testFrame(150)}))
	if got := e.Stats().SpilledPieces.Load(); got == 0 {
		t.Error("expected spilled sort runs under a one-cell budget")
	}
}

// TestSpillShuffledJoinMatchesInMemory runs a keyed join with duplicate
// keys on both sides under a one-cell spill budget: the join routes no
// pieces, so the budget must leave its output untouched.
func TestSpillShuffledJoinMatchesInMemory(t *testing.T) {
	rows := 120
	lrec := make([][]any, rows)
	for i := range lrec {
		lrec[i] = []any{i % 7, i}
	}
	rrec := make([][]any, rows)
	for i := range rrec {
		rrec[i] = []any{i % 5, i * 2}
	}
	plan := &algebra.Join{
		Left:  &algebra.Source{DF: core.MustFromRecords([]string{"k", "x"}, lrec)},
		Right: &algebra.Source{DF: core.MustFromRecords([]string{"k", "y"}, rrec)},
		Kind:  expr.JoinInner,
		On:    []string{"k"},
	}
	e := New(WithBands(3), WithShuffleSpillBudget(1))
	assertEngineAgreesWithEager(t, e, plan)
	if got := e.Stats().SpilledPieces.Load(); got != 0 {
		t.Errorf("the join spilled %d pieces, want 0: it routes none", got)
	}
}

// TestSpillBudgetKeepsResidentPieces checks the other side of the budget:
// with a generous ceiling nothing is written to disk.
func TestSpillBudgetKeepsResidentPieces(t *testing.T) {
	e := New(WithBands(4), WithShuffleSpillBudget(1<<20))
	assertEngineAgreesWithEager(t, e, groupByPlan(&algebra.Source{DF: testFrame(200)}))
	if got := e.Stats().SpilledPieces.Load(); got != 0 {
		t.Errorf("spilled %d pieces under a generous budget, want 0", got)
	}
}

// TestSpillConcurrentMerges runs several spilled shuffles through one engine
// concurrently — the -race CI job turns this into the spill pool's
// thread-safety check (spill-then-re-resolve during concurrent merges).
func TestSpillConcurrentMerges(t *testing.T) {
	e := New(WithBands(4), WithShuffleSpillBudget(1))
	want, err := eager.New().Execute(groupByPlan(&algebra.Source{DF: testFrame(200)}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := e.Execute(groupByPlan(&algebra.Source{DF: testFrame(200)}))
			if err != nil {
				errs[i] = err
				return
			}
			if !want.Equal(got) {
				t.Errorf("run %d disagrees with eager", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("run %d: %v", i, err)
		}
	}
	if err := e.ReleaseSpill(); err != nil {
		t.Fatalf("release spill: %v", err)
	}
}

// TestStreamedScanFilterGroupBy is the engine-level tentpole check: a
// filter→groupby over a morsel-driven scan matches the whole-file read,
// streams in more than one band, and — with transient bands plus a tiny
// spill budget — releases consumed bands and spills routed pieces.
func TestStreamedScanFilterGroupBy(t *testing.T) {
	src := testFrame(400)
	plan := groupByPlan(&algebra.Selection{
		Input: scanOver(t, src, 32),
		Pred:  expr.ColEquals("dept", types.String("eng")),
		Desc:  "dept == eng",
	})
	e := New(WithBands(4), WithShuffleSpillBudget(1))
	run := assertAgreesWithEager(t, e, plan)
	if run.streamStages == 0 {
		t.Error("expected a stream stage")
	}
	if run.streamBands < 2 {
		t.Errorf("stream bands = %d, want >= 2", run.streamBands)
	}
	st := e.Stats()
	if st.StreamReleasedBands.Load() == 0 {
		t.Error("expected consumed scan bands to be released")
	}
	if st.SpilledPieces.Load() == 0 {
		t.Error("expected spilled pieces under a one-cell budget")
	}
}

// TestStreamedScanSort runs the order-preserving shuffle over a streamed
// scan: sort bounds are sampled from band summaries while late bands are
// still parsing. Bands induce their own key columns, so mk reaches the
// merge Int from early bands and Float from late ones.
func TestStreamedScanSort(t *testing.T) {
	src := sortKeysFrame(150)
	for _, bandRows := range []int{1, 7, 64} {
		for _, order := range sortKeysOrders {
			for _, spill := range []bool{false, true} {
				opts := []Option{WithBands(4)}
				if spill {
					opts = append(opts, WithShuffleSpillBudget(1))
				}
				t.Run(fmt.Sprintf("band=%d/%v/spill=%v", bandRows, order, spill), func(t *testing.T) {
					assertSortMatchesOracle(t, New(opts...), &algebra.Sort{Input: scanOver(t, src, bandRows), Order: order})
				})
			}
		}
	}
}

// TestStreamedScanMatchesWholeRead holds a streamed scan — the input cut into
// exact byte-range bands, each parsed in its own task — to the whole-file
// read the eager engine makes, over band sizes, band counts and spill
// budgets: the bare scan gathered, and a filter→groupby over it.
func TestStreamedScanMatchesWholeRead(t *testing.T) {
	src := testFrame(150)
	for _, bandRows := range []int{1, 7, 64} {
		for _, bands := range []int{1, 2, 7} {
			for _, budget := range []int{0, 1} {
				t.Run(fmt.Sprintf("rows=%d/bands=%d/budget=%d", bandRows, bands, budget), func(t *testing.T) {
					e := New(WithBands(bands), WithShuffleSpillBudget(budget))
					defer e.ReleaseSpill()
					scan := scanOver(t, src, bandRows)
					assertEngineAgreesWithEager(t, e, scan)
					assertEngineAgreesWithEager(t, e, groupByPlan(&algebra.Selection{
						Input: scan,
						Pred:  expr.ColEquals("dept", types.String("eng")),
						Desc:  "dept == eng",
					}))
				})
			}
		}
	}
}

// TestStreamedScanReusable executes the same Scan plan twice on one engine:
// each run must re-read the input from its start.
func TestStreamedScanReusable(t *testing.T) {
	plan := groupByPlan(scanOver(t, testFrame(120), 32))
	e := New(WithBands(4))
	first, err := e.Execute(plan)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := e.Execute(plan)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !first.Equal(second) {
		t.Fatal("re-executed streamed scan differs")
	}
}

// TestStreamedScanEmptyAndHeaderOnly covers degenerate sources end to end.
func TestStreamedScanEmptyAndHeaderOnly(t *testing.T) {
	headerOnly := &algebra.Scan{
		Name:    "header-only",
		Columns: []string{"a", "b"},
		Data:    []byte("a,b\n"),
		Options: core.DefaultCSVOptions(),
	}
	out, err := New(WithBands(4)).Execute(headerOnly)
	if err != nil {
		t.Fatalf("header-only: %v", err)
	}
	if out.NRows() != 0 || out.NCols() != 2 {
		t.Errorf("header-only = %dx%d, want 0x2", out.NRows(), out.NCols())
	}

	empty := &algebra.Scan{
		Name:    "empty",
		Data:    []byte{},
		Options: core.DefaultCSVOptions(),
	}
	out, err = New(WithBands(4)).Execute(empty)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if out.NRows() != 0 || out.NCols() != 0 {
		t.Errorf("empty = %dx%d, want 0x0", out.NRows(), out.NCols())
	}
}

// TestStreamedScanRaggedRowFails propagates a parse error out of the band
// pipeline as a query error instead of a hang or partial result — and, with
// bands parsing in parallel, always the first malformed record's error. The
// input has two ragged records in different bands at both band sizes; the
// first is wide, so its band parses slowly and the second band's error is
// ready first. Were a failed band to cancel the query as soon as it parsed,
// that later error would win most runs on more than one worker.
func TestStreamedScanRaggedRowFails(t *testing.T) {
	text := "a,b\n" + strings.Repeat("1,2\n", 6) + strings.Repeat("x", 1<<18) + ",3,4\n5\n6,7\n"
	const want = "physical: stream SCAN(ragged, 2 cols): core: csv row 6 has 3 fields, want 2"
	for _, bandRows := range []int{1, 7} {
		for _, workers := range []int{1, 2, 4} {
			bad := &algebra.Scan{
				Name:     "ragged",
				Columns:  []string{"a", "b"},
				Data:     []byte(text),
				Options:  core.DefaultCSVOptions(),
				BandRows: bandRows,
			}
			pool := exec.NewPool(workers)
			e := New(WithPool(pool), WithBands(4))
			withDeadline(t, 30*time.Second, func() {
				for run := 0; run < 50; run++ {
					_, err := e.Execute(bad)
					if got := rootCause(err); got != want {
						t.Errorf("rows=%d workers=%d run %d: error %q, want %q", bandRows, workers, run, got, want)
						return
					}
				}
			})
			pool.Close()
		}
	}
}

// TestProjectionOverScanSinksIntoCursor checks the lowering of PROJECTION
// directly over a scan: the stream stage names kept/total columns and has no
// projection kernel, results match the eager engine in any column order, and
// the two shapes the cursor cannot answer keep the kernel — an unknown
// label (same operator-named error) and a scan with a second consumer.
func TestProjectionOverScanSinksIntoCursor(t *testing.T) {
	src := testFrame(100)
	e := New(WithBands(4), WithShuffleSpillBudget(1))

	plan := groupByPlan(&algebra.Projection{Input: scanOver(t, src, 16), Cols: []string{"score", "val", "dept"}})
	stage, err := e.Compile(plan.(*algebra.GroupBy).Input)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stage.Describe(), "STREAM[SCAN(test, 4 cols) keep 3/4]"; got != want {
		t.Errorf("stream stage = %s, want %s", got, want)
	}
	assertEngineAgreesWithEager(t, e, plan)
	if e.Stats().StreamReleasedBands.Load() == 0 {
		t.Error("expected the narrowed scan's bands to be released once routed")
	}

	ghost := &algebra.Projection{Input: scanOver(t, src, 16), Cols: []string{"dept", "ghost"}}
	_, eagerErr := eager.New().Execute(ghost)
	_, modinErr := e.Execute(ghost)
	if eagerErr == nil || modinErr == nil || !strings.Contains(modinErr.Error(), eagerErr.Error()) {
		t.Errorf("unknown label: modin error %v, want it to carry the eager engine's %v", modinErr, eagerErr)
	}

	shared := scanOver(t, src, 16)
	both := &algebra.Union{
		Left:  &algebra.Projection{Input: shared, Cols: []string{"dept"}},
		Right: &algebra.Projection{Input: shared, Cols: []string{"score"}},
	}
	assertEngineAgreesWithEager(t, e, both)
	if desc := e.DescribePhysical(both); strings.Contains(desc, "keep") {
		t.Errorf("a shared scan must stay wide:\n%s", desc)
	}
}
