package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkFile holds BENCHMARK.json and the catalogue
// in report.go together, inside the contract's limits.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) > 8 || len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: over the limits 8/16/128",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	sameDefs := func(kind string, file, code []metricDef) {
		t.Helper()
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the catalogue %d", kind, len(file), len(code))
		}
		for i := range file {
			unique(file[i].Name)
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, catalogue %+v", kind, i, file[i], code[i])
			}
		}
	}
	sameDefs("end_to_end", b.EndToEnd, endToEnd)
	sameDefs("per_layer", b.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower is better; got %+v", endToEnd[0])
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %q is not a declared metric", c)
		}
	}
}

// TestQuickRun runs every workload in the -quick configuration, untraced
// and traced, and checks what each emits.
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	cfg := &config{seed: 2020, seconds: 10, quick: true, procs: benchProcs(), sizes: quickSizes, tmpRoot: dir}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(cfg, w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !r.correct() {
				t.Errorf("%s traced=%v: %d of %d statements failed: %v", w.name, traced, r.failed, r.attempted, r.errs)
			}
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			line := r.contract()
			if len(line.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: emitted %d metrics, %d declared", w.name, traced, len(line.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s: %s emitted in %q, declared in %q", w.name, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, m.Value)
				}
			}
			for name := range r.values {
				if _, ok := line.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: measured %s, which is not declared", w.name, traced, name)
				}
			}
			if !traced {
				continue
			}
			checkSpanTrees(t, w.name, r.spans.spans)
			if w.name == "cluster_2w" {
				if got := r.values["cluster.fallback"] + r.values["cluster.local_reruns"]; got != 0 {
					t.Errorf("cluster_2w: %v fallbacks or local re-runs", got)
				}
				if got, want := r.values["cluster.distributed"], 2.0; got != want {
					t.Errorf("cluster_2w: %v statements distributed per pass, ran %v", got, want)
				}
			} else if r.values["df.unattributed_share"] > 0.10 {
				t.Errorf("%s: df.unattributed_share = %v, want ≤ 0.10", w.name, r.values["df.unattributed_share"])
			}
		}
	}
}

// checkSpanTrees asserts that the self times of every span tree sum to its
// root's duration.
func checkSpanTrees(t *testing.T, workload string, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("%s: the traced run recorded no spans", workload)
	}
	self := selfTimes(spans, 0)
	root := make([]int, len(spans))
	sums := map[int]int64{}
	for i, s := range spans {
		root[i] = i
		if s.Parent >= 0 {
			root[i] = root[s.Parent]
		}
		sums[root[i]] += int64(self[i])
	}
	for r, sum := range sums {
		if spans[r].Name != rootSpan {
			t.Errorf("%s: root span %d is %q, want %q", workload, r, spans[r].Name, rootSpan)
		}
		if sum != int64(spans[r].dur()) {
			t.Errorf("%s: self times under span %d sum to %d ns, the root lasted %d ns", workload, r, sum, spans[r].dur())
		}
	}
}

func TestCompareRefusesDifferentMachines(t *testing.T) {
	a := provenance{Seed: 1, NProc: 2, GOMAXPROCS: 2, Sizes: fullSizes}
	b := a
	if err := comparableRuns(&a, &b); err != nil {
		t.Fatalf("identical provenance refused: %v", err)
	}
	b.NProc = 8
	if err := comparableRuns(&a, &b); err == nil {
		t.Error("results from 2 and 8 processors were accepted as comparable")
	}
	b = a
	b.Sizes.CSVRows++
	if err := comparableRuns(&a, &b); err == nil {
		t.Error("results over different input sizes were accepted as comparable")
	}
}
