package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef is one catalogue entry; BENCHMARK.json carries the same names,
// units, directions and bounds, and the self-test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, measured with tracing off. Bound is the share of the
// parent's median by which a later change may worsen the metric.
//
// The bounds are three times the inter-quartile spread observed over ten
// runs on the two-core sandbox (README.md has the table), capped at the
// contract's 0.25: after yardstick normalisation the times still spread by
// 4–10 %, peak RSS by 5–11 %; only allocation repeats to under 1 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_p50_ms", "ms", "lower", 0.25},
	{"pass_p90_ms", "ms", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"alloc_mb_per_pass", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"ref_pass_p50_ms", "ms", "lower", 0.25},
}

// statementNames are the 14 statements of the five scripts.
var statementNames = []string{
	"groupby_1", "groupby_n", "where_count", "filter_head", "topk",
	"map_isnull", "filter_chain_groupby",
	"groupby_hi", "sort_full", "join_shuffled", "dropdup", "transpose_map",
	"scan_filter_groupby", "scan_passthrough_groupby",
}

// perLayer are the metrics of single layers, named <module>.<metric>, from
// the traced run. A metric that does not apply to a workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "ms", Better: "lower"})
		}
		return out
	}
	count := func(names ...string) (out []metricDef) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: "count", Better: "lower"})
		}
		return out
	}
	var defs []metricDef
	defs = append(defs, ms("optimizer.optimize_ms")...)
	defs = append(defs, metricDef{"optimizer.rules_fired", "count", "higher", 0})
	defs = append(defs, ms("modin.compile_ms", "modin.plan_launch_ms", "physical.tasks_wait_ms")...)
	defs = append(defs, count("physical.fused_tasks", "physical.exchange_tasks", "physical.shuffle_stages",
		"physical.summary_tasks", "physical.partition_tasks", "physical.merge_tasks",
		"physical.shuffle_fallbacks", "physical.stream_bands")...)
	defs = append(defs, metricDef{"physical.released_bands", "count", "higher", 0})
	defs = append(defs, ms("partition.split_ms", "partition.gather_ms", "partition.split_rows_ms")...)
	defs = append(defs, metricDef{"exec.task_dispatch_us", "us", "lower", 0})
	defs = append(defs, count("exec.tasks")...)
	defs = append(defs, metricDef{"exec.parallel_efficiency", "ratio", "higher", 0})
	defs = append(defs, ms("algebra.map_ms", "algebra.select_ms")...)
	defs = append(defs, metricDef{"algebra.select_rows_out_share", "ratio", "lower", 0})
	defs = append(defs, ms("algebra.group_partial_ms", "vector.hash_ms", "vector.filter_ms",
		"algebra.group_summarize_ms", "modin.group_plan_ms", "modin.group_merge_ms", "modin.group_restore_ms",
		"modin.sort_bounds_ms", "modin.sort_merge_ms", "algebra.sort_ms", "algebra.join_ms",
		"algebra.dropdup_ms", "algebra.transpose_ms", "stats.collect_ms", "core.parse_ms")...)
	defs = append(defs, metricDef{"core.parse_mb_per_s", "MB/s", "higher", 0})
	defs = append(defs, count("core.bands")...)
	defs = append(defs, ms("schema.induce_ms", "storage.put_ms", "storage.get_ms")...)
	defs = append(defs, metricDef{"storage.spilled_mb", "MB", "lower", 0})
	defs = append(defs, count("modin.spilled_pieces")...)
	defs = append(defs, ms("cluster.encode_ms", "cluster.decode_ms")...)
	defs = append(defs, metricDef{"cluster.wire_mb", "MB", "lower", 0})
	defs = append(defs, ms("cluster.overhead_ms", "cluster.unattributed_ms")...)
	defs = append(defs, metricDef{"cluster.distributed", "count", "higher", 0})
	defs = append(defs, count("cluster.fallback", "cluster.local_reruns", "cluster.resubmitted_bands")...)
	defs = append(defs, ms("eager.execute_ms")...)
	for _, s := range statementNames {
		defs = append(defs, ms("df."+s+"_ms")...)
	}
	defs = append(defs,
		metricDef{"df.speedup_vs_ref", "ratio", "higher", 0},
		metricDef{"df.allocs_per_pass", "count", "lower", 0},
		metricDef{"df.fixed_cost_ms", "ms", "lower", 0},
		metricDef{"df.unattributed_share", "ratio", "lower", 0},
		metricDef{"df.trace_overhead_share", "ratio", "lower", 0},
		// Not a layer of the repository: the machine's speed during the
		// run, which every time above is normalised by (yardstick.go).
		metricDef{"bench.yardstick_ms", "ms", "lower", 0},
	)
	return defs
}

// benchmarkJSON renders BENCHMARK.json from the catalogue:
//
//	go run ./cmd/paperbench -catalogue > BENCHMARK.json
func benchmarkJSON(w io.Writer) error {
	type nameWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type boundDef struct {
		layerDef
		Bound float64 `json:"bound"`
	}
	file := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []nameWhy  `json:"workloads"`
		EndToEnd   []boundDef `json:"end_to_end"`
		PerLayer   []layerDef `json:"per_layer"`
	}{
		Command: []string{"go", "run", "./cmd/paperbench"}, Paths: []string{"cmd/paperbench"}, RunSeconds: 10,
	}
	for _, wl := range workloads {
		file.Workloads = append(file.Workloads, nameWhy{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		file.EndToEnd = append(file.EndToEnd, boundDef{layerDef{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range perLayer {
		file.PerLayer = append(file.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(file)
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same code, seed and sizes.
var exactCounts = []string{
	"optimizer.rules_fired", "physical.fused_tasks", "physical.exchange_tasks", "physical.shuffle_stages",
	"physical.summary_tasks", "physical.partition_tasks", "physical.merge_tasks", "physical.shuffle_fallbacks",
	"physical.stream_bands", "physical.released_bands", "core.bands", "modin.spilled_pieces",
	"cluster.distributed", "cluster.fallback", "cluster.local_reruns", "cluster.resubmitted_bands",
}

// result is one workload's run: the end-to-end metrics (tracing off) or the
// per-layer metrics (traced run).
type result struct {
	workload  string
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
	notes     []string
	spans     *tracer
}

func newResult(w *workload, defs []metricDef, t *tally) *result {
	return &result{workload: w.name, defs: defs, values: map[string]float64{},
		attempted: t.attempted, failed: t.failed, errs: t.errs}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload run: exactly the keys
// correct, attempted, failed and metrics.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) contract() contractLine {
	c := contractLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range r.defs {
		c.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	return c
}

// print writes every metric by name with its unit, then the contract line.
func (r *result) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s: %d statements attempted, %d failed (failed_share %.6f)\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, d := range r.defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (better: %s, bound %.0f%%)", d.Better, d.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %s%s\n", d.Name, r.values[d.Name], d.Unit, bound)
	}
	line, err := json.Marshal(r.contract())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// provenance is what two results must share before -compare looks at them.
type provenance struct {
	Seed       int64               `json:"seed"`
	Seconds    int                 `json:"seconds"`
	Quick      bool                `json:"quick"`
	Sizes      sizes               `json:"sizes"`
	Passes     map[string]passPlan `json:"passes"`
	NProc      int                 `json:"nproc"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Commit     string              `json:"commit"`
	Order      []string            `json:"process_order"`
}

type workloadSummary struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// summary is the JSON a full run writes. It claims no gain: Claim is always
// null and stays the last key.
type summary struct {
	Provenance provenance                  `json:"provenance"`
	Units      map[string]string           `json:"units"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
	Claim      *string                     `json:"claim"`
}

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// comparable refuses two results measured under different conditions:
// nproc, GOMAXPROCS, sizes, pass counts or seed.
func comparableRuns(a, b *provenance) error {
	var diffs []string
	if a.NProc != b.NProc {
		diffs = append(diffs, fmt.Sprintf("nproc %d vs %d", a.NProc, b.NProc))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.Seed != b.Seed {
		diffs = append(diffs, fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed))
	}
	if a.Sizes != b.Sizes {
		diffs = append(diffs, fmt.Sprintf("sizes %+v vs %+v", a.Sizes, b.Sizes))
	}
	for name, pa := range a.Passes {
		if pb, ok := b.Passes[name]; !ok || pa != pb {
			diffs = append(diffs, fmt.Sprintf("%s passes %+v vs %+v", name, pa, pb))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("results are not comparable: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// worsening returns by what share of base the metric got worse (negative
// when it improved).
func worsening(d metricDef, base, now float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - now) / base
	}
	return (now - base) / base
}

// compare prints every workload × end-to-end metric in its own row against
// its bound, and reports whether any row is worse than its bound.
func compare(w io.Writer, a, b *summary) (regressed bool, err error) {
	if err := comparableRuns(&a.Provenance, &b.Provenance); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			return false, fmt.Errorf("workload %s missing from the second result", name)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-14s %-20s %14d %14d %9s %7s  %s\n", name, "failed", wa.Failed, wb.Failed, "", "0", "REGRESSED")
			regressed = true
		}
		for _, d := range endToEnd {
			worse := worsening(d, wa.EndToEnd[d.Name], wb.EndToEnd[d.Name])
			verdict := "within bound"
			if worse > d.Bound {
				verdict, regressed = "REGRESSED", true
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", name, d.Name,
				wa.EndToEnd[d.Name], wb.EndToEnd[d.Name], worse*100, d.Bound*100, verdict)
		}
	}
	return regressed, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spreadTable prints, per workload × end-to-end metric, the largest
// relative spread over the sets of a -repeat run beside the metric's bound,
// and checks that every exact count repeated exactly.
func spreadTable(w io.Writer, sets []*summary) (ok bool) {
	ok = true
	fmt.Fprintf(w, "%-14s %-20s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "verdict")
	for _, name := range sortedKeys(sets[0].Workloads) {
		for _, d := range endToEnd {
			var vals []float64
			for _, s := range sets {
				vals = append(vals, s.Workloads[name].EndToEnd[d.Name])
			}
			s := sorted(vals)
			med := median(vals)
			spread := 0.0
			if med != 0 {
				spread = (s[len(s)-1] - s[0]) / med
			}
			verdict := "agrees"
			if spread > d.Bound {
				verdict, ok = "EXCEEDS BOUND", false
			}
			fmt.Fprintf(w, "%-14s %-20s %14.4f %8.2f%% %6.0f%%  %s\n", name, d.Name, med, spread*100, d.Bound*100, verdict)
		}
		for _, c := range exactCounts {
			first := sets[0].Workloads[name].PerLayer[c]
			for _, s := range sets[1:] {
				if v := s.Workloads[name].PerLayer[c]; v != first {
					fmt.Fprintf(w, "%-14s %-20s %14.4f vs %.4f  COUNT DID NOT REPEAT\n", name, c, first, v)
					ok = false
				}
			}
		}
	}
	return ok
}
