package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/eager"
	"repro/internal/modin"
	"repro/internal/session"
	"repro/internal/workload"
)

func TestFigure2PlansProduceExpectedShapes(t *testing.T) {
	df := workload.Taxi(workload.DefaultTaxiOptions(300))
	engine := eager.New()
	for _, q := range Figure2Queries {
		plan, err := Figure2Plan(q, df)
		if err != nil {
			t.Fatal(err)
		}
		out, err := engine.Execute(plan)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		switch q {
		case QueryMap:
			if out.NRows() != 300 || out.NCols() != df.NCols() {
				t.Errorf("map shape = %dx%d", out.NRows(), out.NCols())
			}
		case QueryGroupByN:
			// 6 passenger counts + the null group.
			if out.NRows() != 7 {
				t.Errorf("groupby(n) groups = %d\n%s", out.NRows(), out)
			}
		case QueryGroupBy1:
			if out.NRows() != 1 {
				t.Errorf("groupby(1) rows = %d", out.NRows())
			}
		case QueryTranspose:
			if out.NRows() != df.NCols() || out.NCols() != 300 {
				t.Errorf("transpose shape = %dx%d", out.NRows(), out.NCols())
			}
		}
	}
	if _, err := Figure2Plan("bogus", df); err == nil {
		t.Error("unknown query should fail")
	}
}

func TestFigure2EnginesAgreeOnEveryQuery(t *testing.T) {
	df := workload.Taxi(workload.DefaultTaxiOptions(500))
	base := eager.New()
	par := modin.New()
	for _, q := range Figure2Queries {
		plan, err := Figure2Plan(q, df)
		if err != nil {
			t.Fatal(err)
		}
		a, err := base.Execute(plan)
		if err != nil {
			t.Fatalf("%s baseline: %v", q, err)
		}
		b, err := par.Execute(plan)
		if err != nil {
			t.Fatalf("%s modin: %v", q, err)
		}
		if !a.Equal(b) {
			t.Errorf("%s: engines disagree", q)
		}
	}
}

func TestRunFigure2SmallSweep(t *testing.T) {
	cfg := Figure2Config{
		RowCounts:               []int{500, 1500},
		Repeats:                 1,
		BaselineTransposeBudget: 9 * 800, // transposes DNF at 1500 rows
	}
	results, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	var sawDNF, sawCompletion bool
	for _, r := range results {
		if r.Query == QueryTranspose {
			if r.Rows == 1500 && !r.BaselineDNF {
				t.Error("baseline transpose should DNF at 1500 rows under budget")
			}
			if r.BaselineDNF {
				sawDNF = true
			}
			if r.Modin == 0 {
				t.Error("modin must complete the transpose the baseline cannot")
			}
		}
		if !r.BaselineDNF && r.Baseline > 0 {
			sawCompletion = true
		}
	}
	if !sawDNF || !sawCompletion {
		t.Error("sweep should include both completions and a DNF")
	}
	text := FormatFigure2(results)
	if !strings.Contains(text, "DNF") || !strings.Contains(text, "groupby(n)") {
		t.Errorf("format missing content:\n%s", text)
	}
}

func TestRunFigure8PlansAgreeAndFormat(t *testing.T) {
	results, err := RunFigure8([]int{50, 200}, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	text := FormatFigure8(results)
	if !strings.Contains(text, "plan(a)") {
		t.Errorf("format wrong:\n%s", text)
	}
}

func TestFigure8RewriteWinsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// The paper's claim: the sorted-Year streaming plan beats hashing the
	// unsorted Month column, increasingly so with more groups.
	results, err := RunFigure8([]int{3000}, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Optimized >= r.Original {
		t.Logf("warning: rewrite did not win at this scale: %v vs %v", r.Original, r.Optimized)
	}
}

func TestRunFigure7RankingShape(t *testing.T) {
	res := RunFigure7(300)
	if res.PandasFraction < 0.25 || res.PandasFraction > 0.55 {
		t.Errorf("pandas fraction = %v", res.PandasFraction)
	}
	if len(res.ByTotal) < 20 {
		t.Fatalf("functions ranked = %d", len(res.ByTotal))
	}
	top := map[string]bool{res.ByTotal[0].Name: true, res.ByTotal[1].Name: true, res.ByTotal[2].Name: true}
	if !top["read_csv"] && !top["head"] {
		t.Errorf("top-3 = %v", res.ByTotal[:3])
	}
	// kurtosis is the Figure 7 tail anchor.
	last := res.ByTotal[len(res.ByTotal)-1]
	if last.Total > res.ByTotal[0].Total/5 {
		t.Errorf("distribution not heavy-tailed: head=%d tail=%d", res.ByTotal[0].Total, last.Total)
	}
	text := FormatFigure7(res)
	if !strings.Contains(text, "read_csv") || !strings.Contains(text, "co-occurrences") {
		t.Errorf("format wrong:\n%s", text)
	}
}

func TestRunTable3OurEnginesSupportEverything(t *testing.T) {
	res := RunTable3(modin.New(), eager.New())
	for _, f := range Table3Features {
		if !res.Support[f]["modin"] {
			t.Errorf("modin should support %q", f)
		}
		if !res.Support[f]["pandas-baseline"] {
			t.Errorf("baseline should support %q", f)
		}
	}
	// Reference column sanity, per the published table.
	if res.Support["TRANSPOSE"]["Spark"] || res.Support["TRANSPOSE"]["Dask"] {
		t.Error("Spark/Dask do not support TRANSPOSE in Table 3")
	}
	if !res.Support["Relational Operators"]["Spark"] {
		t.Error("Spark supports relational operators in Table 3")
	}
	text := FormatTable3(res)
	if !strings.Contains(text, "modin") || !strings.Contains(text, "FROMLABELS") {
		t.Errorf("format wrong:\n%s", text)
	}
}

func TestRunSchemaInductionDeferralWins(t *testing.T) {
	res, err := RunSchemaInduction(4000, 12)
	if err != nil {
		t.Fatal(err)
	}
	// Deferring induction past a 1-in-10 filter must beat inducing the
	// full frame first — the Section 5.1.1 claim.
	if res.DeferThenFilter >= res.InduceThenFilter {
		t.Errorf("defer=%v should beat induce-first=%v", res.DeferThenFilter, res.InduceThenFilter)
	}
	// Cached re-induction is far cheaper than the initial induction.
	if res.CachedReuse >= res.InduceAll {
		t.Errorf("cached=%v should beat fresh=%v", res.CachedReuse, res.InduceAll)
	}
}

func TestRunTransposeAblation(t *testing.T) {
	res, err := RunTransposeAblation(400, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Physical == 0 || res.Banded == 0 {
		t.Error("both strategies should be timed")
	}
}

func TestRunEvaluationModes(t *testing.T) {
	results, err := RunEvaluationModes(3000, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("modes = %d", len(results))
	}
	byMode := map[session.Mode]EvaluationModesResult{}
	for _, r := range results {
		byMode[r.Mode] = r
	}
	// Opportunistic serves the first view no slower than eager (both have
	// it materialized by then), and lazy pays only the prefix.
	if byMode[session.Opportunistic].TimeToFirstView > byMode[session.Eager].TimeToFirstView*3 {
		t.Errorf("opportunistic first view %v vs eager %v",
			byMode[session.Opportunistic].TimeToFirstView, byMode[session.Eager].TimeToFirstView)
	}
	si, err := RunSchemaInduction(500, 6)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := RunTransposeAblation(100, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	text := FormatAblations(si, ta, results)
	for _, want := range []string{"E8", "E9", "E10", "opportunistic"} {
		if !strings.Contains(text, want) {
			t.Errorf("ablation format missing %s:\n%s", want, text)
		}
	}
}
