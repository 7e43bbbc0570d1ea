// Command paperbench is the repository's benchmark: five closed-loop,
// single-client workloads, each reporting the same end-to-end metrics with
// tracing off and, in a separate traced run, the per-layer metrics.
// BENCHMARK.json at the repository root names the workloads, metrics and
// bounds; README.md in this directory is the catalogue.
//
//	go run ./cmd/paperbench --workload inmem_small --seed 1 --seconds 10 --trace 0
//	go run ./cmd/paperbench -repeat 2 -out result.json   # every workload, each in its own process
//	go run ./cmd/paperbench -compare parent.json change.json
//	go run ./cmd/paperbench -sweep
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds int
	quick   bool
	procs   int // GOMAXPROCS, pool workers and engine bands: min(nproc, 4)
	sizes   sizes
	tmpRoot string // every file the run writes lives below it
}

const maxProcs = 4

func benchProcs() int { return min(runtime.NumCPU(), maxProcs) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		seed         = fs.Int64("seed", 2020, "seed of every generated input")
		seconds      = fs.Int("seconds", 10, "nominal seconds of timed passes; pass counts scale with it")
		trace        = fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		quick        = fs.Bool("quick", false, "tiny inputs and 12 passes (the tier-1 self-test's configuration)")
		repeat       = fs.Int("repeat", 1, "run the whole set this many times and print the spread beside each bound")
		order        = fs.String("order", "forward", "process start order of a full run: forward or reverse")
		out          = fs.String("out", "", "write the full run's JSON summary here (default: standard output)")
		traceOut     = fs.String("trace-out", "", "write the traced run's spans here as JSON lines")
		doCompare    = fs.Bool("compare", false, "compare two summaries: paperbench -compare a.json b.json")
		catalogue    = fs.Bool("catalogue", false, "print BENCHMARK.json as the catalogue in report.go and workloads.go defines it")
		doSweep      = fs.Bool("sweep", false, "rows × GOMAXPROCS sweep; writes BENCH_LAYERS.json beside this file's sources")
		sweepOut     = fs.String("sweep-out", "cmd/paperbench/BENCH_LAYERS.json", "where -sweep writes its result")
		sweepMax     = fs.Int("sweep-max-rows", 5_000_000, "largest row count -sweep tries")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}

	if *catalogue {
		if err := benchmarkJSON(stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	if *doCompare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two summary files"))
		}
		a, err := readSummary(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readSummary(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		regressed, err := compare(stdout, a, b)
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}

	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, procs: benchProcs(), sizes: fullSizes}
	if cfg.quick {
		cfg.sizes = quickSizes
	}
	if cfg.seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	runtime.GOMAXPROCS(cfg.procs)

	// Everything the run writes — the CSV inputs, the engines' spill files
	// (which follow TMPDIR) — stays below one directory of the working
	// directory, removed on exit.
	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(".bench_tmp", "run-")
	if err != nil {
		return fail(err)
	}
	defer func() {
		os.RemoveAll(tmp)
		os.Remove(".bench_tmp") // only when no other run is using it
	}()
	if cfg.tmpRoot, err = filepath.Abs(tmp); err != nil {
		return fail(err)
	}
	os.Setenv("TMPDIR", cfg.tmpRoot)

	switch {
	case *doSweep:
		if err := sweep(cfg, *sweepOut, *sweepMax, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		r, err := runWorkload(cfg, w, *trace == 1)
		if err != nil {
			return fail(err)
		}
		if *traceOut != "" && r.spans != nil {
			if err := r.spans.writeTo(*traceOut); err != nil {
				return fail(err)
			}
		}
		if err := r.print(stdout); err != nil {
			return fail(err)
		}
		if !r.correct() {
			return 1
		}
		return 0
	}
	return fullRun(cfg, *repeat, *order, *out, *traceOut, stdout, stderr)
}

func runWorkload(cfg *config, w *workload, traced bool) (*result, error) {
	if traced {
		return measurePerLayer(cfg, w)
	}
	return measureEndToEnd(cfg, w)
}

// fullRun runs every workload, each in its own child process (a fresh heap,
// its own peak RSS), first untraced then traced, repeat times over.
func fullRun(cfg *config, repeat int, order, out, traceOut string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	switch order {
	case "forward":
	case "reverse":
		for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
			names[i], names[j] = names[j], names[i]
		}
	default:
		return fail(fmt.Errorf("-order must be forward or reverse, got %q", order))
	}

	var sets []*summary
	allCorrect := true
	for set := 0; set < repeat; set++ {
		s := newSummary(cfg, names)
		for _, name := range names {
			ws := &workloadSummary{Correct: true, EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
			s.Workloads[name] = ws
			for _, traced := range []int{0, 1} {
				args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(traced)}
				if cfg.quick {
					args = append(args, "-quick")
				}
				if traced == 1 && traceOut != "" {
					args = append(args, "-trace-out", fmt.Sprintf("%s.%s.%d.jsonl", traceOut, name, set))
				}
				line, err := runChild(self, args, stderr)
				if err != nil {
					return fail(fmt.Errorf("%s (trace %d): %w", name, traced, err))
				}
				into := ws.EndToEnd
				if traced == 1 {
					into = ws.PerLayer
				}
				for m, v := range line.Metrics {
					into[m] = v.Value
				}
				ws.Attempted += line.Attempted
				ws.Failed += line.Failed
				ws.Correct = ws.Correct && line.Correct
			}
			allCorrect = allCorrect && ws.Correct
			fmt.Fprintf(stderr, "set %d: %-13s pass_p50 %.3f ms  p90 %.3f ms  %.0f rows/s  speedup vs ref %.3f  failed %d/%d\n", set, name,
				ws.EndToEnd["pass_p50_ms"], ws.EndToEnd["pass_p90_ms"], ws.EndToEnd["rows_per_s"], ws.PerLayer["df.speedup_vs_ref"], ws.Failed, ws.Attempted)
		}
		sets = append(sets, s)
	}

	agree := true
	if repeat > 1 {
		agree = spreadTable(stderr, sets)
	}
	data, err := json.MarshalIndent(sets[len(sets)-1], "", "  ")
	if err != nil {
		return fail(err)
	}
	data = append(data, '\n')
	if out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(out, data, 0o644)
	}
	if err != nil {
		return fail(err)
	}
	if !allCorrect || !agree {
		return 1
	}
	return 0
}

// runChild runs one single-workload process and parses the contract line,
// the last line of its standard output.
func runChild(self string, args []string, stderr io.Writer) (*contractLine, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	if runErr != nil && line.Correct {
		return nil, runErr
	}
	return &line, nil
}

func newSummary(cfg *config, order []string) *summary {
	s := &summary{
		Provenance: provenance{
			Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick, Sizes: cfg.sizes,
			Passes: map[string]passPlan{}, NProc: runtime.NumCPU(), GOMAXPROCS: cfg.procs,
			GoVersion: runtime.Version(), Commit: gitCommit(), Order: order,
		},
		Units:     map[string]string{},
		Workloads: map[string]*workloadSummary{},
	}
	for _, w := range workloads {
		s.Provenance.Passes[w.name] = w.plan(cfg)
	}
	for _, d := range endToEnd {
		s.Units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		s.Units[d.Name] = d.Unit
	}
	return s
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
