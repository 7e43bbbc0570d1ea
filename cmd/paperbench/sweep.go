package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/modin"
)

// The sweep is not one of BENCHMARK.json's runs and gates nothing: it
// looks for the paper's Figure 2 crossovers — the input size from which the
// partitioned engine beats the eager baseline, and from which two workers
// beat the local engine — over rows × GOMAXPROCS.

var sweepRows = []int{50_000, 200_000, 1_000_000, 5_000_000}

const (
	// The baseline's transpose gives up past this many cells (the paper's
	// pandas could not transpose beyond 6 GB), as in the experiment harness.
	baselineTransposeCells = 9 * 60_000
	// MODIN's transposed frame holds one column vector per input row; past
	// this many rows the sweep skips the cell instead of exhausting memory.
	modinTransposeMaxRows = 200_000
	sweepBandRows         = 8192
	// A win counts when it is larger than the run-to-run spread of a
	// three-to-five-sample median on this sandbox.
	sweepMargin = 0.05
)

type sweepCell struct {
	Statement string             `json:"statement"`
	Rows      int                `json:"rows"`
	Procs     int                `json:"gomaxprocs"`
	Reps      int                `json:"reps"`
	ModinMS   float64            `json:"modin_ms,omitempty"`  // median; for the CSV statement, 2 workers
	RefMS     float64            `json:"ref_ms,omitempty"`    // median; eager, or local MODIN for the CSV statement
	RefDNF    bool               `json:"ref_dnf,omitempty"`   // the baseline exceeded its transpose budget
	Skipped   string             `json:"skipped,omitempty"`   // why the cell was not run
	Layers    map[string]float64 `json:"layers_ms,omitempty"` // staged spans of the MODIN run
}

type crossover struct {
	Statement string `json:"statement"`
	Procs     int    `json:"gomaxprocs"`
	// Rows is the smallest swept size from which the challenger wins at
	// every swept size; 0 when it never does.
	Rows  int    `json:"rows"`
	Claim string `json:"claim"`
}

type sweepResult struct {
	Seed       int64       `json:"seed"`
	NProc      int         `json:"nproc"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	MaxRows    int         `json:"max_rows"`
	Crossovers []crossover `json:"crossovers"`
	Cells      []sweepCell `json:"cells"`
}

func sweep(cfg *config, out string, maxRows int, stdout io.Writer) error {
	res := sweepResult{Seed: cfg.seed, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: gitCommit(), MaxRows: maxRows}
	procsList := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procsList = append(procsList, n)
	}
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		pool := exec.NewPool(procs)
		eng := modin.New(modin.WithPool(pool))
		for _, rows := range sweepRows {
			if rows > maxRows {
				continue
			}
			cells, err := sweepFrames(cfg, eng, rows, procs)
			if err != nil {
				pool.Close()
				return err
			}
			csvCell, err := sweepCSV(cfg, eng, rows, procs)
			if err != nil {
				pool.Close()
				return err
			}
			for _, c := range append(cells, csvCell) {
				fmt.Fprintf(stdout, "%-22s rows=%-8d procs=%d  modin|2 workers %10.3f ms  eager|local %10.3f ms  %s\n",
					c.Statement, c.Rows, c.Procs, c.ModinMS, c.RefMS, c.note())
				res.Cells = append(res.Cells, c)
			}
		}
		pool.Close()
	}
	res.Crossovers = crossovers(res.Cells, maxRows)
	for _, c := range res.Crossovers {
		fmt.Fprintf(stdout, "%-22s procs=%d  %s\n", c.Statement, c.Procs, c.Claim)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

func (c sweepCell) note() string {
	switch {
	case c.Skipped != "":
		return "skipped: " + c.Skipped
	case c.RefDNF:
		return "baseline DNF"
	}
	return ""
}

func sweepReps(rows int) int {
	if rows > 200_000 {
		return 3
	}
	return 5
}

// timeReps returns the median wall time of reps runs of build()'s query.
func timeReps(reps int, build func() (*df.Query, error)) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		q, err := build()
		if err != nil {
			return 0, err
		}
		if _, _, err := runStatement(q, false); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ms), nil
}

// sweepFrames runs the Figure 2 statements on MODIN and the eager baseline
// over one generated taxi frame.
func sweepFrames(cfg *config, eng *modin.Engine, rows, procs int) ([]sweepCell, error) {
	taxi := genTaxiFrame(cfg.seed, rows)
	baseline := &eager.Engine{TransposeCellBudget: baselineTransposeCells}
	stmts := []frameStmt{
		{name: "map_isnull", build: func(e algebra.Engine) *df.Query { return lazyOn(taxi, e).IsNA() }},
		{name: "groupby_n", build: groupByN(taxi)},
		{name: "groupby_1", build: groupBy1(taxi)},
		{name: "transpose_map", build: func(e algebra.Engine) *df.Query { return lazyOn(taxi, e).T().IsNA() }},
	}
	reps := sweepReps(rows)
	var cells []sweepCell
	for _, s := range stmts {
		c := sweepCell{Statement: s.name, Rows: rows, Procs: procs, Reps: reps}
		if s.name == "transpose_map" && rows > modinTransposeMaxRows {
			c.Skipped = fmt.Sprintf("a %d-column transposed frame does not fit this machine's memory", rows)
			cells = append(cells, c)
			continue
		}
		var err error
		if c.ModinMS, err = timeReps(reps, func() (*df.Query, error) { return s.build(eng), nil }); err != nil {
			return nil, fmt.Errorf("sweep %s modin at %d rows: %w", s.name, rows, err)
		}
		c.RefMS, err = timeReps(reps, func() (*df.Query, error) { return s.build(baseline), nil })
		if errors.Is(err, eager.ErrBudgetExceeded) {
			c.RefDNF, err = true, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sweep %s eager at %d rows: %w", s.name, rows, err)
		}
		tr := newTracer()
		if _, err := tr.staged(statement{name: s.name, local: eng, query: func() *df.Query { return s.build(eng) }}); err != nil {
			return nil, err
		}
		c.Layers = map[string]float64{}
		for _, sp := range tr.spans {
			if sp.Name != rootSpan {
				c.Layers[sp.Name] += float64(sp.dur()) / 1e6
			}
		}
		cells = append(cells, c)
		runtime.GC()
	}
	return cells, nil
}

// sweepCSV runs scan_filter_groupby on two in-process workers and on the
// local streamed engine over one generated file.
func sweepCSV(cfg *config, eng *modin.Engine, rows, procs int) (sweepCell, error) {
	c := sweepCell{Statement: "scan_filter_groupby", Rows: rows, Procs: procs, Reps: sweepReps(rows)}
	path := filepath.Join(cfg.tmpRoot, fmt.Sprintf("sweep-%d.csv", rows))
	if _, err := writeTaxiCSV(path, cfg.seed, rows); err != nil {
		return c, err
	}
	defer os.Remove(path)
	sched, workers, err := cluster.StartInProcess(2, cluster.WithLocalEngine(eng), cluster.WithHeartbeat(0))
	if err != nil {
		return c, err
	}
	defer func() {
		sched.Close()
		for _, w := range workers {
			w.Close()
		}
	}()
	scan := func(on algebra.Engine) func() (*df.Query, error) {
		return func() (*df.Query, error) {
			return scanFilterGroupBy(df.ScanCSVFile(path).WithScanBandRows(sweepBandRows).WithEngine(on)), nil
		}
	}
	if c.ModinMS, err = timeReps(c.Reps, scan(sched)); err != nil {
		return c, fmt.Errorf("sweep csv cluster at %d rows: %w", rows, err)
	}
	if c.RefMS, err = timeReps(c.Reps, scan(eng)); err != nil {
		return c, fmt.Errorf("sweep csv local at %d rows: %w", rows, err)
	}
	if st := sched.ClusterStats(); st.Fallback+st.LocalReruns > 0 {
		return c, fmt.Errorf("sweep csv cluster at %d rows: %d fallbacks, %d local re-runs", rows, st.Fallback, st.LocalReruns)
	}
	return c, nil
}

// crossovers reports, per statement and GOMAXPROCS, the smallest swept size
// from which the challenger (MODIN, or 2 workers) beats the reference at
// every swept size up to maxRows, by more than sweepMargin. A baseline DNF
// counts as a win.
func crossovers(cells []sweepCell, maxRows int) []crossover {
	type key struct {
		stmt  string
		procs int
	}
	var order []key
	at := map[key]int{}
	for _, c := range cells {
		k := key{c.Statement, c.Procs}
		if _, ok := at[k]; !ok {
			order = append(order, k)
			at[k] = -1
		}
		if c.Skipped != "" {
			continue
		}
		wins := c.RefDNF || c.ModinMS < (1-sweepMargin)*c.RefMS
		switch {
		case !wins:
			at[k] = -1
		case at[k] < 0:
			at[k] = c.Rows
		}
	}
	var out []crossover
	for _, k := range order {
		who, whom := "MODIN beats eager", "MODIN does not beat eager"
		if k.stmt == "scan_filter_groupby" {
			who, whom = "2 workers beat local", "2 workers do not beat local"
		}
		c := crossover{Statement: k.stmt, Procs: k.procs}
		if rows := at[k]; rows > 0 {
			c.Rows = rows
			c.Claim = fmt.Sprintf("%s at ≥ %d rows", who, rows)
		} else {
			c.Claim = fmt.Sprintf("%s: none ≤ %d rows", whom, maxRows)
		}
		out = append(out, c)
	}
	return out
}
