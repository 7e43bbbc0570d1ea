package main

import (
	"fmt"
	"path/filepath"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/exec"
	"repro/internal/modin"
)

// sizes fixes every input dimension of a run. The final values are part of
// the result's provenance: -compare refuses two results whose sizes differ.
type sizes struct {
	SmallRows     int `json:"small_rows"`
	LargeRows     int `json:"large_rows"`
	FactRows      int `json:"fact_rows"`
	FactKeySpace  int `json:"fact_key_space"`
	DimRows       int `json:"dim_rows"`
	TransposeRows int `json:"transpose_rows"`
	CSVRows       int `json:"csv_rows"`
	ScanBandRows  int `json:"scan_band_rows"`
	SpillCells    int `json:"spill_cells"`
	Workers       int `json:"cluster_workers"`
}

// fullSizes are the sizes BENCHMARK.json's runs use; quickSizes serve the
// tier-1 self-test. The dimension frame stays above modin's 65 536-row
// broadcast limit at full size so join_shuffled takes the key-shuffled path.
var (
	fullSizes = sizes{
		SmallRows: 1_000, LargeRows: 150_000,
		FactRows: 75_000, FactKeySpace: 26_500, DimRows: 70_000, TransposeRows: 10_000,
		CSVRows: 24_000, ScanBandRows: 2048, SpillCells: 40_000, Workers: 2,
	}
	quickSizes = sizes{
		SmallRows: 2_000, LargeRows: 4_000,
		FactRows: 3_000, FactKeySpace: 1_000, DimRows: 2_000, TransposeRows: 200,
		CSVRows: 3_000, ScanBandRows: 512, SpillCells: 2_000, Workers: 2,
	}
)

// tiny returns the sizes with every input cut to 64 rows, for the fixed-cost
// probe.
func (s sizes) tiny() sizes {
	s.SmallRows, s.LargeRows, s.FactRows, s.DimRows, s.CSVRows = 64, 64, 64, 64, 64
	s.FactKeySpace, s.TransposeRows = 32, 16
	return s
}

// passPlan fixes how many passes a workload runs. Pass counts are fixed,
// not time-boxed, so both sides of a later A/B run the same work; Timed is
// sized for about ten seconds on two cores and scales with -seconds.
type passPlan struct {
	Timed  int `json:"timed"`
	Ref    int `json:"ref"`
	Traced int `json:"traced"`
	Warm   int `json:"warm"`
}

const (
	minTimedPasses = 110 // ≥ 10 samples beyond p90
	tracedPasses   = 30
	warmPasses     = 5
)

// statement is one dataframe statement of a workload's script: a lazy query
// built through the public df API, ending in Collect or Count.
type statement struct {
	name   string
	inRows int  // input rows the statement consumes
	count  bool // terminal verb is Count, not Collect
	// query builds the statement on the measured path; ref on the
	// workload's reference path, over the same inputs.
	query func() *df.Query
	ref   func() (*df.Query, error)
	// local is the engine the measured path runs on, for the staged
	// (traced) execution; nil when sched is the measured engine.
	local *modin.Engine
	sched *cluster.Scheduler
	// spillCells is the shuffle spill budget the statement's engine runs
	// under; 0 means none.
	spillCells int
}

// env is one workload set up and ready to run passes.
type env struct {
	stmts []statement
	// truth checks a CSV statement's result against the sums accumulated
	// while the file was written; nil for in-memory workloads.
	truth func(name string, got *core.DataFrame) error
	// eagerOf returns the statement over the same input bound to the eager
	// engine, for the correctness gate.
	eagerOf func(s statement) (*df.Query, error)
	close   func()
	pool    *exec.Pool
	csvPath string
	sched   *cluster.Scheduler // the measured engine of cluster_2w, else nil
}

type workload struct {
	name  string
	why   string
	timed int // timed passes per ten seconds of -seconds
	ref   int
	setup func(cfg *config, dir string) (*env, error)
}

func (w *workload) plan(cfg *config) passPlan {
	if cfg.quick {
		return passPlan{Timed: 12, Ref: 3, Traced: 3, Warm: 2}
	}
	timed := w.timed * cfg.seconds / 10
	if timed < minTimedPasses {
		timed = minTimedPasses
	}
	return passPlan{Timed: timed, Ref: w.ref, Traced: tracedPasses, Warm: warmPasses}
}

var workloads = []*workload{
	{
		name: "inmem_small", timed: 16000, ref: 8000, setup: setupInmemSmall,
		why: "1,000-row in-memory taxi frame, 5 short statements, 16,000 passes: per-statement fixed cost (optimize, compile, partition, task DAG, gather) is most of a pass and kernels are minor",
	},
	{
		name: "inmem_large", timed: 110, ref: 21, setup: setupInmemLarge,
		why: "150,000-row taxi frame, the Figure 2 map and groupbys plus a filter chain, 110 passes: kernels and band-parallel execution dominate, fixed cost is under 1 %",
	},
	{
		name: "shuffle_wide", timed: 110, ref: 21, setup: setupShuffleWide,
		why: "75,000-row fact frame with ~25,000 distinct keys, 70,000-row dimension, 110 passes: wide groupby, full sort, key-shuffled join, dropdup, transpose move full-width rows through the shuffle layer",
	},
	{
		name: "csv_stream", timed: 110, ref: 50, setup: setupCSVStream,
		why: "24,000-row taxi CSV streamed from disk in 2,048-row bands, 110 passes, one groupby spilling its routed pieces: parse, schema induction and spill I/O dominate, kernels are minor",
	},
	{
		name: "cluster_2w", timed: 110, ref: 60, setup: setupCluster,
		why: "the csv_stream file and statements on 2 in-process workers over loopback, 110 passes: adds wire encode/decode, RPC and merge placement to identical parse and kernels",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newLocalEnv is the shared base: one pool of cfg.procs workers and a MODIN
// engine on it (bands = workers).
func newLocalEnv(cfg *config) (*env, *modin.Engine) {
	pool := exec.NewPool(cfg.procs)
	return &env{pool: pool, close: pool.Close}, modin.New(modin.WithPool(pool))
}

// frameStatements binds builder functions over in-memory frames to the
// MODIN engine (measured) and the eager engine (reference).
func frameStatements(e *env, eng *modin.Engine, defs []frameStmt) {
	base := eager.New()
	for _, d := range defs {
		e.stmts = append(e.stmts, statement{
			name: d.name, inRows: d.inRows, count: d.count, local: eng,
			query: func() *df.Query { return d.build(eng) },
			ref:   func() (*df.Query, error) { return d.build(base), nil },
		})
	}
	e.eagerOf = func(s statement) (*df.Query, error) { return s.ref() }
}

type frameStmt struct {
	name   string
	inRows int
	count  bool
	build  func(e algebra.Engine) *df.Query
}

func lazyOn(frame *core.DataFrame, e algebra.Engine) *df.Query {
	return df.FromFrame(frame).WithEngine(e).Lazy()
}

func groupBy1(frame *core.DataFrame) func(algebra.Engine) *df.Query {
	return func(e algebra.Engine) *df.Query { return lazyOn(frame, e).GroupBy().Count("passenger_count") }
}

func groupByN(frame *core.DataFrame) func(algebra.Engine) *df.Query {
	return func(e algebra.Engine) *df.Query { return lazyOn(frame, e).GroupBy("passenger_count").Size() }
}

func setupInmemSmall(cfg *config, _ string) (*env, error) {
	taxi := genTaxiFrame(cfg.seed, cfg.sizes.SmallRows)
	n := taxi.NRows()
	e, eng := newLocalEnv(cfg)
	frameStatements(e, eng, []frameStmt{
		{name: "groupby_1", inRows: n, build: groupBy1(taxi)},
		{name: "groupby_n", inRows: n, build: groupByN(taxi)},
		{name: "where_count", inRows: n, count: true, build: func(e algebra.Engine) *df.Query {
			return lazyOn(taxi, e).Where(df.Gt("trip_distance", df.Float(10)))
		}},
		{name: "filter_head", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(taxi, e).Where(df.Eq("payment_type", df.Str("cash"))).
				Select("vendor_id", "fare_amount", "tip_amount").Head(10)
		}},
		{name: "topk", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(taxi, e).SortValues("total_amount").Head(10)
		}},
	})
	return e, nil
}

func setupInmemLarge(cfg *config, _ string) (*env, error) {
	taxi := genTaxiFrame(cfg.seed, cfg.sizes.LargeRows)
	n := taxi.NRows()
	e, eng := newLocalEnv(cfg)
	frameStatements(e, eng, []frameStmt{
		{name: "map_isnull", inRows: n, build: func(e algebra.Engine) *df.Query { return lazyOn(taxi, e).IsNA() }},
		{name: "groupby_n", inRows: n, build: groupByN(taxi)},
		{name: "groupby_1", inRows: n, build: groupBy1(taxi)},
		{name: "filter_chain_groupby", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(taxi, e).
				Where(df.NotNull("passenger_count")).
				Where(df.Gt("trip_distance", df.Float(2))).
				Where(df.Ne("payment_type", df.Str("dispute"))).
				GroupBy("vendor_id").Sum("total_amount")
		}},
	})
	return e, nil
}

func setupShuffleWide(cfg *config, _ string) (*env, error) {
	fact := genFactFrame(cfg.seed, cfg.sizes.FactRows, cfg.sizes.FactKeySpace)
	dim := genDimFrame(cfg.seed+1, cfg.sizes.DimRows)
	prefix := fact.SliceRows(0, cfg.sizes.TransposeRows).Compact()
	n := fact.NRows()
	e, eng := newLocalEnv(cfg)
	frameStatements(e, eng, []frameStmt{
		{name: "groupby_hi", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(fact, e).GroupBy("key").Sum("amount")
		}},
		{name: "sort_full", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(fact, e).SortValues("amount")
		}},
		{name: "join_shuffled", inRows: n + dim.NRows(), build: func(e algebra.Engine) *df.Query {
			return lazyOn(fact, e).Merge(lazyOn(dim, e), "key")
		}},
		{name: "dropdup", inRows: n, build: func(e algebra.Engine) *df.Query {
			return lazyOn(fact, e).DropDuplicates("key")
		}},
		{name: "transpose_map", inRows: prefix.NRows(), build: func(e algebra.Engine) *df.Query {
			return lazyOn(prefix, e).T().IsNA()
		}},
	})
	return e, nil
}

// scanFilterGroupBy and scanPassthroughGroupBy are the two CSV statements,
// shared by csv_stream, cluster_2w and their reference paths.
func scanFilterGroupBy(q *df.Query) *df.Query {
	return q.Where(df.NotNull("passenger_count")).GroupBy("vendor_id").Sum("total_amount")
}

func scanPassthroughGroupBy(q *df.Query) *df.Query {
	return q.GroupBy("vendor_id").Sum("total_amount")
}

// csvEnv writes the taxi file and prepares the truth check both CSV
// workloads share.
func csvEnv(cfg *config, dir string) (*env, *modin.Engine, error) {
	path := filepath.Join(dir, "taxi.csv")
	truth, err := writeTaxiCSV(path, cfg.seed, cfg.sizes.CSVRows)
	if err != nil {
		return nil, nil, fmt.Errorf("write %s: %w", path, err)
	}
	e, eng := newLocalEnv(cfg)
	e.csvPath = path
	e.truth = func(name string, got *core.DataFrame) error {
		if name == "scan_passthrough_groupby" {
			return truth.all.check(got)
		}
		return truth.notNull.check(got)
	}
	base := eager.New()
	e.eagerOf = func(s statement) (*df.Query, error) {
		whole, err := df.ReadCSVFile(path)
		if err != nil {
			return nil, err
		}
		return csvStatement(s.name, whole.WithEngine(base).Lazy()), nil
	}
	return e, eng, nil
}

func csvStatement(name string, q *df.Query) *df.Query {
	if name == "scan_passthrough_groupby" {
		return scanPassthroughGroupBy(q)
	}
	return scanFilterGroupBy(q)
}

// check compares a vendor_id → sum(total_amount) result against the sums
// accumulated at generation, in first-appearance vendor order.
func (t *vendorSums) check(got *core.DataFrame) error {
	if got.NRows() != len(t.order) || got.NCols() != 2 {
		return fmt.Errorf("result is %dx%d, want %dx2", got.NRows(), got.NCols(), len(t.order))
	}
	for i, v := range t.order {
		if name := got.Value(i, 0).String(); name != taxiVendors[v] {
			return fmt.Errorf("group %d is %q, want %q", i, name, taxiVendors[v])
		}
		if sum := got.Value(i, 1).Float(); sum != t.sum[v] {
			return fmt.Errorf("sum(%s) = %v, want %v", taxiVendors[v], sum, t.sum[v])
		}
	}
	return nil
}

func setupCSVStream(cfg *config, dir string) (*env, error) {
	e, eng, err := csvEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	// The pass-through statement runs under a spill budget small enough
	// that its routed pieces go to disk (what Query.WithSpillBudget binds,
	// on this run's pool).
	spill := modin.New(modin.WithPool(e.pool), modin.WithShuffleSpillBudget(cfg.sizes.SpillCells))
	scan := func(on *modin.Engine) *df.Query {
		return df.ScanCSVFile(e.csvPath).WithScanBandRows(cfg.sizes.ScanBandRows).WithEngine(on)
	}
	// Reference: whole-file read, then the same statement on MODIN.
	ref := func(name string) func() (*df.Query, error) {
		return func() (*df.Query, error) {
			whole, err := df.ReadCSVFile(e.csvPath)
			if err != nil {
				return nil, err
			}
			return csvStatement(name, whole.WithEngine(eng).Lazy()), nil
		}
	}
	n := cfg.sizes.CSVRows
	e.stmts = []statement{
		{name: "scan_filter_groupby", inRows: n, local: eng, ref: ref("scan_filter_groupby"),
			query: func() *df.Query { return scanFilterGroupBy(scan(eng)) }},
		{name: "scan_passthrough_groupby", inRows: n, local: spill, spillCells: cfg.sizes.SpillCells, ref: ref("scan_passthrough_groupby"),
			query: func() *df.Query { return scanPassthroughGroupBy(scan(spill)) }},
	}
	return e, nil
}

func setupCluster(cfg *config, dir string) (*env, error) {
	e, eng, err := csvEnv(cfg, dir)
	if err != nil {
		return nil, err
	}
	// No liveness probe: in-process workers cannot die, its 2 s timer is
	// noise, and Scheduler.Close races with the probe goroutine's start.
	sched, workers, err := cluster.StartInProcess(cfg.sizes.Workers, cluster.WithLocalEngine(eng), cluster.WithHeartbeat(0))
	if err != nil {
		e.close()
		return nil, fmt.Errorf("start %d workers: %w", cfg.sizes.Workers, err)
	}
	e.sched = sched
	closePool := e.close
	e.close = func() {
		sched.Close()
		for _, w := range workers {
			w.Close()
		}
		closePool()
	}
	scan := func(on algebra.Engine) *df.Query {
		return df.ScanCSVFile(e.csvPath).WithScanBandRows(cfg.sizes.ScanBandRows).WithEngine(on)
	}
	n := cfg.sizes.CSVRows
	for _, name := range []string{"scan_filter_groupby", "scan_passthrough_groupby"} {
		e.stmts = append(e.stmts, statement{
			name: name, inRows: n, sched: sched,
			query: func() *df.Query { return csvStatement(name, scan(sched)) },
			// Reference: the local MODIN streamed run (csv_stream's path).
			ref: func() (*df.Query, error) { return csvStatement(name, scan(eng)), nil },
		})
	}
	return e, nil
}
