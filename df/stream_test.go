package df

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/modin"
)

// streamCSV renders a deterministic multi-band dataset as CSV text.
func streamCSV(rows int) string {
	var b strings.Builder
	b.WriteString("id,dept,val\n")
	depts := []string{"eng", "ops", "sales"}
	for i := 0; i < rows; i++ {
		val := ""
		if i%11 != 0 {
			val = fmt.Sprintf("%d", i%17)
		}
		fmt.Fprintf(&b, "%d,%s,%s\n", i, depts[i%3], val)
	}
	return b.String()
}

// inMemory parses the same text whole, for equality baselines.
func inMemory(t *testing.T, text string) *Query {
	t.Helper()
	d, err := ReadCSVString(text)
	if err != nil {
		t.Fatal(err)
	}
	return d.Lazy()
}

func mustCollect(t *testing.T, q *Query) *DataFrame {
	t.Helper()
	out, err := q.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamedPipelinesMatchInMemory runs filter, groupby and sort
// pipelines through small-band streaming scans and requires byte-equality
// with the whole-text read — the user-facing face of the tentpole.
func TestStreamedPipelinesMatchInMemory(t *testing.T) {
	text := streamCSV(300)
	pipelines := map[string]func(*Query) *Query{
		"identity": func(q *Query) *Query { return q },
		"filter":   func(q *Query) *Query { return q.Where(Eq("dept", Str("eng"))) },
		"filter-chain": func(q *Query) *Query {
			return q.Where(NotNull("val")).Where(Eq("dept", Str("ops")))
		},
		"filter-groupby": func(q *Query) *Query {
			return q.Where(Eq("dept", Str("eng"))).GroupBy("dept").Sum("val")
		},
		"sort": func(q *Query) *Query { return q.SortValues("dept", "id") },
	}
	for name, build := range pipelines {
		t.Run(name, func(t *testing.T) {
			want := mustCollect(t, build(inMemory(t, text)))
			got := mustCollect(t, build(ScanCSVString(text).WithScanBandRows(32)))
			if !want.Equal(got) {
				t.Errorf("streamed %s differs from in-memory:\n%s\nvs\n%s", name, got, want)
			}
		})
	}
}

// TestStreamedHeadTailMatchInMemory: Head and Tail over a scan streamed in
// 32-row bands — none, one, a band's worth, across a band boundary, all
// rows and more, alone and after a filter — equal the whole-text read.
func TestStreamedHeadTailMatchInMemory(t *testing.T) {
	text := streamCSV(300)
	for _, n := range []int{0, 1, 32, 45, 300, 310} {
		for name, build := range map[string]func(*Query) *Query{
			"head":        func(q *Query) *Query { return q.Head(n) },
			"tail":        func(q *Query) *Query { return q.Tail(n) },
			"filter-head": func(q *Query) *Query { return q.Where(Eq("dept", Str("ops"))).Head(n) },
			"filter-tail": func(q *Query) *Query { return q.Where(Eq("dept", Str("ops"))).Tail(n) },
		} {
			t.Run(fmt.Sprintf("%s %d", name, n), func(t *testing.T) {
				want := mustCollect(t, build(inMemory(t, text)))
				got := mustCollect(t, build(ScanCSVString(text).WithScanBandRows(32)))
				if !want.Equal(got) {
					t.Errorf("streamed %s(%d) differs from in-memory:\n%s\nvs\n%s", name, n, got, want)
				}
			})
		}
	}
}

// TestIsNAAgreesAcrossEngines runs the isnull MAP — bulk on its own, boxed
// once fused with another elementwise MAP — on the eager engine, MODIN at
// several band counts and a seven-row streamed scan, and requires the same
// frame from each.
func TestIsNAAgreesAcrossEngines(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,fare,tag,paid,day\n")
	for i := 0; i < 40; i++ {
		fare, tag, paid, day := fmt.Sprintf("%d.5", i), []string{"a", "b", "c"}[i%3], []string{"true", "false"}[i%2], fmt.Sprintf("2020-01-%02d", i%28+1)
		switch {
		case i%5 == 0:
			fare = ""
		case i%7 == 0:
			tag, paid = "NA", ""
		case i%4 == 1:
			day = ""
		}
		fmt.Fprintf(&b, "%d,%s,%s,%s,%s\n", i, fare, tag, paid, day)
	}
	text := b.String()
	negate := func(v Value) Value { return Bool(!v.Bool()) }
	same := func(v Value) Value { return v }
	pipelines := map[string]func(*Query) *Query{
		"isna":            func(q *Query) *Query { return q.IsNA() },
		"transpose-isna":  func(q *Query) *Query { return q.T().IsNA() },
		"isna-then-map":   func(q *Query) *Query { return q.IsNA().ApplyMap("not", negate) },
		"map-then-isna":   func(q *Query) *Query { return q.ApplyMap("same", same).IsNA() },
		"select-and-isna": func(q *Query) *Query { return q.Select("fare", "day").IsNA() },
	}
	engines := map[string]Engine{
		"modin-1": modin.New(modin.WithBands(1)),
		"modin-2": modin.New(modin.WithBands(2)),
		"modin-7": modin.New(modin.WithBands(7)),
	}
	for name, build := range pipelines {
		t.Run(name, func(t *testing.T) {
			want := mustCollect(t, build(inMemory(t, text).WithEngine(NewBaselineEngine())))
			if want.Len() == 0 {
				t.Fatal("empty result")
			}
			for ename, e := range engines {
				if got := mustCollect(t, build(inMemory(t, text).WithEngine(e))); !want.Equal(got) {
					t.Errorf("%s differs from eager:\n%s\nvs\n%s", ename, got, want)
				}
			}
			if got := mustCollect(t, build(ScanCSVString(text).WithScanBandRows(7))); !want.Equal(got) {
				t.Errorf("streamed differs from eager:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestScanCSVFileStreams round-trips through a real file, twice — Open
// must rewind by reopening, so a streamed query stays re-collectable.
func TestScanCSVFileStreams(t *testing.T) {
	text := streamCSV(200)
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	q := ScanCSVFile(path).WithScanBandRows(32).Where(NotNull("val"))
	want := mustCollect(t, inMemory(t, text).Where(NotNull("val")))
	first := mustCollect(t, q)
	second := mustCollect(t, q)
	if !want.Equal(first) || !first.Equal(second) {
		t.Error("file scan differs between runs or from in-memory read")
	}

	n, err := q.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != first.Len() {
		t.Errorf("Count = %d, want %d", n, first.Len())
	}
}

// TestScanCSVFileMissingWrapsSentinel: open failures are sticky, typed and
// carry the path.
func TestScanCSVFileMissingWrapsSentinel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.csv")
	q := ScanCSVFile(path).Where(NotNull("val"))
	_, err := q.Collect()
	if err == nil {
		t.Fatal("expected an error for a missing file")
	}
	if !errors.Is(err, ErrScanSource) {
		t.Errorf("error does not wrap ErrScanSource: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error does not carry the path: %v", err)
	}
	if _, err := q.Count(); !errors.Is(err, ErrScanSource) {
		t.Errorf("Count should surface the same sticky error, got %v", err)
	}
}

// TestScanCSVFileRemovedBeforeCollect: a file that was there when the query
// was built but is gone when it runs fails at execution, still typed and
// still naming the path.
func TestScanCSVFileRemovedBeforeCollect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gone.csv")
	if err := os.WriteFile(path, []byte(streamCSV(20)), 0o644); err != nil {
		t.Fatal(err)
	}
	q := ScanCSVFile(path)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, err := q.Collect()
	if !errors.Is(err, ErrScanSource) {
		t.Errorf("error does not wrap ErrScanSource: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("error does not carry the path: %v", err)
	}
}

// TestScanCSVReaderErrors: a failing reader surfaces as a sticky typed
// error too.
func TestScanCSVReaderErrors(t *testing.T) {
	_, err := ScanCSV(failingReader{}).Collect()
	if !errors.Is(err, ErrScanSource) {
		t.Errorf("reader failure should wrap ErrScanSource, got %v", err)
	}
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("disk on fire") }

// TestWithScanBandRowsValidation covers both misuse shapes: a non-positive
// band size, and a plan with no streaming scan to configure.
func TestWithScanBandRowsValidation(t *testing.T) {
	if _, err := ScanCSVString("a\n1\n").WithScanBandRows(0).Collect(); err == nil {
		t.Error("WithScanBandRows(0) should fail")
	}
	d, err := ReadCSVString("a\n1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lazy().WithScanBandRows(8).Collect(); err == nil {
		t.Error("WithScanBandRows on a scan-free plan should fail")
	}
}

// TestWithSpillBudgetMatchesAndCleansUp: a one-cell budget pushes every
// routed piece to disk, the result stays byte-equal, and the terminal verb
// releases the spill files.
func TestWithSpillBudgetMatchesAndCleansUp(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // isolate dfstore-* counting

	text := streamCSV(300)
	build := func(q *Query) *Query {
		return q.Where(NotNull("val")).GroupBy("dept").Sum("val")
	}
	want := mustCollect(t, build(inMemory(t, text)))
	got := mustCollect(t, build(ScanCSVString(text).WithScanBandRows(32).WithSpillBudget(1)))
	if !want.Equal(got) {
		t.Errorf("spilled pipeline differs:\n%s\nvs\n%s", got, want)
	}
	dirs, err := filepath.Glob(filepath.Join(os.TempDir(), "dfstore-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 0 {
		t.Errorf("spill dirs left behind after Collect: %v", dirs)
	}
}

// TestSpillCancelledMidMergeLeavesNoFiles: the leak regression for
// cancellation. A one-cell budget spills every routed piece, then the
// merge phase fails (sum over a string column) and cancels the run while
// partition stragglers may still be admitting pieces. ReleaseSpill must
// quiesce those stragglers before closing the store, so no dfstore-* spill
// directory survives the failed Collect.
func TestSpillCancelledMidMergeLeavesNoFiles(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // isolate dfstore-* counting

	text := streamCSV(300)
	_, err := ScanCSVString(text).WithScanBandRows(16).WithSpillBudget(1).
		GroupBy("dept").Sum("id").Select("bogus").Collect()
	if err == nil {
		t.Fatal("expected the pipeline to fail")
	}
	_, err = ScanCSVString(text).WithScanBandRows(16).WithSpillBudget(1).
		GroupBy("dept").Sum("nonexistent").Collect()
	if err == nil {
		t.Fatal("expected sum over a missing column to fail mid-merge")
	}
	dirs, globErr := filepath.Glob(filepath.Join(os.TempDir(), "dfstore-*"))
	if globErr != nil {
		t.Fatal(globErr)
	}
	if len(dirs) != 0 {
		t.Errorf("spill dirs leaked after cancelled runs: %v", dirs)
	}
}

// TestWithSpillBudgetAsync: CollectAsync releases the spill store once the
// in-flight DAG resolves.
func TestWithSpillBudgetAsync(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())

	text := streamCSV(200)
	fut := ScanCSVString(text).WithScanBandRows(32).WithSpillBudget(1).
		GroupBy("dept").Sum("val").CollectAsync()
	out, err := fut.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("empty async result")
	}
	// The release goroutine runs just after the future resolves.
	deadline := 100
	for ; deadline > 0; deadline-- {
		dirs, _ := filepath.Glob(filepath.Join(os.TempDir(), "dfstore-*"))
		if len(dirs) == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if deadline == 0 {
		t.Error("async spill store never released")
	}
}

// adversarialGroupCSV renders rows through encoding/csv so quoted fields
// are exact. Keys draw from a pool that includes embedded newlines, commas
// and quotes (so morsel edges land inside quoted fields), plus the empty
// string (null key); runs of nullRun consecutive null-key rows make entire
// small bands keyless. Values go null every seventh row.
func adversarialGroupCSV(t *testing.T, rows, nullRun int, rng *rand.Rand) string {
	t.Helper()
	keys := []string{"plain", "nl\nkey", "q\"uote", "comma,key", "nl\ntail\n"}
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write([]string{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	nulls := 0
	for i := 0; i < rows; i++ {
		k := ""
		if nulls > 0 {
			nulls--
		} else if nullRun > 0 && rng.Intn(12) == 0 {
			nulls = nullRun - 1
		} else {
			k = keys[rng.Intn(len(keys))]
		}
		v := ""
		if i%7 != 0 {
			v = fmt.Sprintf("%d", rng.Intn(50))
		}
		if err := w.Write([]string{k, v}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamedGroupByAdversarialBands is the eager-vs-streamed groupby
// property check over adversarial band boundaries: quoted newlines sitting
// at morsel edges, whole bands of null keys, a single-band input, and an
// empty (header-only) file, each at several morsel sizes and with the
// spill budget forcing every routed piece to disk. The streamed result —
// incremental hash routing, rank-repaired merge order — must be
// cell-identical to the whole-text eager read. Under DF_CLUSTER_WORKERS
// the same assertions run against the distributed backend (file scans
// ship; the eager baseline stays local).
func TestStreamedGroupByAdversarialBands(t *testing.T) {
	rng := rand.New(rand.NewSource(1729))
	inputs := map[string]string{
		"quoted-newlines": adversarialGroupCSV(t, 220, 0, rng),
		"null-key-runs":   adversarialGroupCSV(t, 260, 24, rng),
		"single-band":     adversarialGroupCSV(t, 5, 0, rng),
		"empty":           "k,v\n",
	}
	agg := func(q *Query) *Query {
		return q.GroupBy("k").Agg(
			AggSpec{Col: "v", Agg: "sum", As: "v_sum"},
			AggSpec{Col: "v", Agg: "count", As: "v_count"},
		)
	}
	for name, text := range inputs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "adv.csv")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			want := mustCollect(t, agg(inMemory(t, text)))
			for _, bandRows := range []int{1, 7, 16, 64} {
				got := mustCollect(t, agg(ScanCSVFile(path).WithScanBandRows(bandRows)))
				if !want.Equal(got) {
					t.Fatalf("band rows=%d: streamed groupby differs:\n%s\nvs\n%s", bandRows, got, want)
				}
				spilled := mustCollect(t, agg(ScanCSVFile(path).WithScanBandRows(bandRows).WithSpillBudget(1)))
				if !want.Equal(spilled) {
					t.Fatalf("band rows=%d: spilled streamed groupby differs:\n%s\nvs\n%s", bandRows, spilled, want)
				}
			}
		})
	}
}

// TestStreamedExplainShowsStreamStage: the physical strategy rendering
// names the streamed scan and its morsel size.
func TestStreamedExplainShowsStreamStage(t *testing.T) {
	out := ScanCSVString(streamCSV(50)).WithScanBandRows(16).Where(NotNull("val")).Explain()
	if !strings.Contains(out, "SCAN strategy=stream (band rows=16") {
		t.Errorf("explain lacks the stream strategy line:\n%s", out)
	}
}
