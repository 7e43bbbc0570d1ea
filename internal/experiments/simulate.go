package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/expr"
	"repro/internal/partition"
	"repro/internal/workload"
)

// The paper's Figure 2 numbers come from a 128-core EC2 node; this
// reproduction may run on far fewer cores (possibly one), where physical
// parallel speedup cannot manifest. Per the substitution rule, this file
// adds a *scheduling simulator*: the MODIN engine's real per-partition
// tasks are executed and timed individually, and the N-worker completion
// time is computed by LPT list scheduling over the measured durations plus
// the measured sequential merge cost. The code path exercised is exactly
// the parallel engine's work decomposition; only the wall-clock overlap is
// simulated.

// SimResult projects one query's speedup at several worker counts.
type SimResult struct {
	Query       Figure2Query
	Rows        int
	Baseline    time.Duration
	TaskCount   int
	SerialTasks time.Duration // Σ task durations (1-worker makespan)
	MergeCost   time.Duration // sequential combine cost
	ProjectedAt map[int]time.Duration
	SpeedupAt   map[int]float64
	BaselineDNF bool
}

// makespan computes the LPT (longest processing time first) list-scheduling
// completion time of the tasks on w workers.
func makespan(tasks []time.Duration, w int) time.Duration {
	if w < 1 {
		w = 1
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	loads := make([]time.Duration, w)
	for _, t := range sorted {
		// Assign to the least-loaded worker.
		min := 0
		for i := 1; i < w; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += t
	}
	var max time.Duration
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// taskRepeats is how many times measureTasks runs each task, keeping the
// fastest: a single timing of a microsecond task is at the mercy of one GC
// pause or preemption, which would then set the whole projected makespan.
const taskRepeats = 3

// measureTasks decomposes the query the way the MODIN engine does and times
// every partition task and the sequential merge, each as the best of
// taskRepeats runs (the best-of-repeats rule Figure2Config.Repeats applies
// to whole queries).
func measureTasks(q Figure2Query, df *core.DataFrame, bands int) (tasks []time.Duration, merge time.Duration, err error) {
	for rep := 0; rep < taskRepeats; rep++ {
		t, m, err := measureTasksOnce(q, df, bands)
		if err != nil {
			return nil, 0, err
		}
		if rep == 0 {
			tasks, merge = t, m
			continue
		}
		for i := range tasks {
			tasks[i] = min(tasks[i], t[i])
		}
		merge = min(merge, m)
	}
	return tasks, merge, nil
}

// measureTasksOnce times every partition task of one decomposed run
// sequentially, returning the task durations and the sequential merge cost.
func measureTasksOnce(q Figure2Query, df *core.DataFrame, bands int) (tasks []time.Duration, merge time.Duration, err error) {
	pf := partition.New(df, partition.Rows, bands)
	switch q {
	case QueryMap:
		for r := 0; r < pf.RowBands(); r++ {
			start := time.Now()
			if _, err := algebra.MapFrame(pf.Band(r), algebra.IsNullFn()); err != nil {
				return nil, 0, err
			}
			tasks = append(tasks, time.Since(start))
		}
		return tasks, 0, nil

	case QueryGroupByN, QueryGroupBy1:
		spec := expr.GroupBySpec{
			Keys: []string{"passenger_count"},
			Aggs: []expr.AggSpec{{Agg: expr.AggSize, As: "trips"}},
		}
		if q == QueryGroupBy1 {
			spec = expr.GroupBySpec{
				Aggs: []expr.AggSpec{{Col: "passenger_count", Agg: expr.AggCount, As: "non_null_rows"}},
			}
		}
		partials := make([]*algebra.GroupPartial, 0, pf.RowBands())
		for r := 0; r < pf.RowBands(); r++ {
			band, err := pf.RowBand(r)
			if err != nil {
				return nil, 0, err
			}
			start := time.Now()
			g := algebra.NewGroupPartial(spec)
			if err := g.AddFrame(band); err != nil {
				return nil, 0, err
			}
			tasks = append(tasks, time.Since(start))
			partials = append(partials, g)
		}
		start := time.Now()
		merged := partials[0]
		for _, p := range partials[1:] {
			merged.Merge(p)
		}
		if _, err := merged.Finalize(); err != nil {
			return nil, 0, err
		}
		return tasks, time.Since(start), nil

	case QueryTranspose:
		// Band r's task transposes the band into the output's column range
		// r, then maps that range.
		bands := make([]*core.DataFrame, pf.RowBands())
		first := make([]int, len(bands)+1)
		for r := range bands {
			bands[r] = pf.Band(r)
			first[r+1] = first[r] + bands[r].NRows()
		}
		t, err := algebra.TransposeBands(bands, nil, func(n int, fn func(int) error) error {
			for r := range n {
				start := time.Now()
				if err := fn(r); err != nil {
					return err
				}
				tasks = append(tasks, time.Since(start))
			}
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		for r := range bands {
			cols := make([]int, first[r+1]-first[r])
			for k := range cols {
				cols[k] = first[r] + k
			}
			start := time.Now()
			if _, err := algebra.MapFrame(t.SelectCols(cols), algebra.IsNullFn()); err != nil {
				return nil, 0, err
			}
			tasks[r] += time.Since(start)
		}
		return tasks, 0, nil
	}
	return nil, 0, fmt.Errorf("experiments: unknown query %q", q)
}

// SimConfig parameterizes the projection.
type SimConfig struct {
	Rows                    int
	Bands                   int
	WorkerCounts            []int
	BaselineTransposeBudget int
}

// DefaultSimConfig projects at the paper's scale points, cutting one row
// band per simulated worker at the largest point: a band is the unit of
// parallelism, so fewer bands than workers would cap the projection.
func DefaultSimConfig(rows int) SimConfig {
	return SimConfig{
		Rows:                    rows,
		Bands:                   128,
		WorkerCounts:            []int{1, 4, 16, 128},
		BaselineTransposeBudget: 0,
	}
}

// RunSimulatedFigure2 measures the baseline and the decomposed MODIN tasks,
// then projects multi-worker completion times.
func RunSimulatedFigure2(cfg SimConfig) ([]SimResult, error) {
	df := algebra.InduceFrame(workload.Taxi(workload.DefaultTaxiOptions(cfg.Rows)))
	var out []SimResult
	for _, q := range Figure2Queries {
		plan, err := Figure2Plan(q, df)
		if err != nil {
			return nil, err
		}
		res := SimResult{
			Query:       q,
			Rows:        cfg.Rows,
			ProjectedAt: make(map[int]time.Duration),
			SpeedupAt:   make(map[int]float64),
		}
		res.Baseline, res.BaselineDNF, err = timeEngine(
			&eager.Engine{TransposeCellBudget: cfg.BaselineTransposeBudget}, plan, 1)
		if err != nil {
			return nil, err
		}
		tasks, merge, err := measureTasks(q, df, cfg.Bands)
		if err != nil {
			return nil, err
		}
		res.TaskCount = len(tasks)
		res.MergeCost = merge
		for _, t := range tasks {
			res.SerialTasks += t
		}
		for _, w := range cfg.WorkerCounts {
			proj := makespan(tasks, w) + merge
			res.ProjectedAt[w] = proj
			if !res.BaselineDNF && proj > 0 {
				res.SpeedupAt[w] = float64(res.Baseline) / float64(proj)
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatSimulated renders the projection table.
func FormatSimulated(results []SimResult, workers []int) string {
	out := "Figure 2 (projected) — measured per-partition tasks scheduled on W simulated workers\n"
	out += fmt.Sprintf("%-12s %10s %12s %6s", "query", "rows", "baseline", "tasks")
	for _, w := range workers {
		out += fmt.Sprintf(" %11s", fmt.Sprintf("W=%d", w))
	}
	out += "\n"
	for _, r := range results {
		base := r.Baseline.String()
		if r.BaselineDNF {
			base = "DNF"
		}
		out += fmt.Sprintf("%-12s %10d %12s %6d", r.Query, r.Rows, base, r.TaskCount)
		for _, w := range workers {
			out += fmt.Sprintf(" %11s", r.ProjectedAt[w].Round(time.Microsecond))
		}
		out += "\n      speedups:"
		for _, w := range workers {
			out += fmt.Sprintf("  W=%d→%.1fx", w, r.SpeedupAt[w])
		}
		out += "\n"
	}
	return out
}
