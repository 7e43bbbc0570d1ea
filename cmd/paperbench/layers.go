package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/eager"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

const (
	replayRounds   = 5
	dispatchProbes = 2000
	tracedRefPass  = 7
)

// measurePerLayer is the traced run. After untraced passes (the base of
// df.trace_overhead_share and the per-statement medians) it runs the traced
// passes — each statement staged through the public entry points, one span
// per call — then the kernel replays and the layer probes. Like the
// end-to-end times, every time is normalised to the yardstick samples of
// its own phase.
func measurePerLayer(cfg *config, w *workload) (*result, error) {
	t := &tally{}
	yard := newYardstick(cfg.procs)
	l, err := load(cfg, w, t, yard)
	if err != nil {
		return nil, err
	}
	defer l.unload()
	plan := l.plan
	untracedN := max(plan.Timed/4, 40)
	tracedN := max(plan.Timed/10, plan.Traced)
	refN := tracedRefPass
	rounds := replayRounds
	if cfg.quick {
		untracedN, tracedN, refN, rounds = plan.Timed, plan.Traced, plan.Ref, 2
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	untraced := l.runPasses(untracedN, false)
	runtime.ReadMemStats(&after)

	r := newResult(w, perLayer, t)
	r.spans = newTracer()
	traced := l.tracedPasses(r, tracedN)
	ref := l.runPasses(refN, true)
	l.gate()
	l.clusterCheck()

	passMS := median(untraced.pass)
	for i, s := range l.stmts {
		r.set("df."+s.name+"_ms", median(untraced.stmt[i]))
	}
	r.set("df.speedup_vs_ref", median(ref.pass)/passMS)
	r.set("df.allocs_per_pass", float64(after.Mallocs-before.Mallocs)/float64(untracedN))
	if l.sched != nil {
		// The reference path is the local streamed run of the same
		// statements: what the cluster adds over it.
		r.set("cluster.overhead_ms", median(traced)-median(ref.pass))
	}

	busy, err := l.replays(r, rounds)
	if err != nil {
		return nil, err
	}
	if wait := r.values["physical.tasks_wait_ms"]; wait > 0 {
		r.set("exec.parallel_efficiency", busy/(float64(cfg.procs)*wait))
	}
	if l.sched != nil {
		r.set("cluster.unattributed_ms", r.values["cluster.overhead_ms"]-r.values["cluster.encode_ms"]-r.values["cluster.decode_ms"])
	}
	l.dispatchProbe(r)
	if err := l.eagerProbe(r, rounds); err != nil {
		return nil, err
	}
	fixed, err := fixedCostMS(cfg, w, t, yard)
	if err != nil {
		return nil, err
	}
	r.set("df.fixed_cost_ms", fixed)
	r.set("bench.yardstick_ms", median(yard.ms))
	r.attempted, r.failed, r.errs = t.attempted, t.failed, t.errs
	r.notes = append(r.notes,
		fmt.Sprintf("pass samples: %d untraced, %d traced (staged), %d reference, %d replay rounds", untracedN, tracedN, refN, rounds),
		fmt.Sprintf("untraced pass p50 %.4f ms; shares of it: fixed cost %.1f%%, %s", passMS, 100*fixed/passMS, layerShares(r, passMS)))
	return r, nil
}

// spanMetric maps the staged spans onto per-layer metrics.
var spanMetric = map[string]string{
	"optimizer.optimize": "optimizer.optimize_ms",
	"modin.schedule":     "modin.plan_launch_ms",
	"physical.wait":      "physical.tasks_wait_ms",
	"partition.gather":   "partition.gather_ms",
}

// tracedPasses runs n passes with every statement staged, sets the span and
// counter metrics on r (per pass: the median over the passes) and returns
// the passes' normalised times.
func (l *loaded) tracedPasses(r *result, n int) []float64 {
	tr := r.spans
	times := map[string][]float64{}
	counts := map[string][]float64{}
	unattributed := make([][]float64, len(l.stmts))
	passMS := make([]float64, 0, n)
	// Each traced pass is paired with an untraced one issued just before
	// it, so both see the same machine: df.trace_overhead_share compares
	// their medians as the clock read them.
	paired := make([]float64, 0, n)

	tasksBefore, _ := l.pool.Stats()
	spilledBefore := l.spilledPieces()
	var distributedBefore int64
	if l.sched != nil {
		distributedBefore = l.sched.ClusterStats().Distributed
	}
	factor := l.yard.bracket(func() {
		for p := 0; p < n; p++ {
			l.yard.tick()
			untraced := 0.0
			for i, s := range l.stmts {
				ms, got, err := runStatement(s.query(), s.count)
				untraced += ms
				l.tally.attempted++
				if err != nil || got != l.want[i] {
					l.tally.fail("%s paired pass %d: got %v (%v), want %v", s.name, p, got, err, l.want[i])
				}
			}
			paired = append(paired, untraced)
			tr.pass = p
			first := len(tr.spans)
			// Every counter reports, 0 included, on every workload.
			count := map[string]float64{"optimizer.rules_fired": 0}
			addStats(count, &physical.Stats{})
			for i, s := range l.stmts {
				res, err := tr.staged(s)
				l.tally.attempted++
				if err != nil {
					l.tally.fail("%s traced pass %d: %v", s.name, p, err)
					continue
				}
				got := check{rows: res.out.NRows()}
				if !s.count {
					got = checkOf(res.out)
				}
				if got != l.want[i] {
					l.tally.fail("%s traced pass %d: got %v, want %v", s.name, p, got, l.want[i])
				}
				count["optimizer.rules_fired"] += float64(res.rules)
				if res.stats != nil {
					addStats(count, res.stats)
				}
			}
			spans := tr.spans[first:]
			self := selfTimes(spans, first)
			ms := map[string]float64{}
			for _, m := range spanMetric {
				ms[m] = 0
			}
			total := 0.0
			for i, sp := range spans {
				d := float64(sp.dur()) / 1e6
				if sp.Name == rootSpan {
					total += d
					stmt := l.stmtIdx[sp.Stmt]
					unattributed[stmt] = append(unattributed[stmt], float64(self[i])/float64(sp.dur()))
				} else if m, ok := spanMetric[sp.Name]; ok {
					ms[m] += d
				}
			}
			passMS = append(passMS, total)
			for k, v := range ms {
				times[k] = append(times[k], v)
			}
			for k, v := range count {
				counts[k] = append(counts[k], v)
			}
		}
	})
	r.set("df.trace_overhead_share", median(passMS)/median(paired)-1)
	for i := range passMS {
		passMS[i] *= factor
	}
	for k, v := range times {
		r.set(k, median(v)*factor)
	}
	for k, v := range counts {
		r.set(k, median(v))
	}
	// The largest statement's share: every statement must stay attributed.
	worst := 0.0
	for _, u := range unattributed {
		worst = max(worst, median(u))
	}
	r.set("df.unattributed_share", worst)
	tasksAfter, _ := l.pool.Stats()
	r.set("exec.tasks", float64(tasksAfter-tasksBefore)/float64(2*n))
	r.set("modin.spilled_pieces", float64(l.spilledPieces()-spilledBefore)/float64(2*n))
	if l.sched != nil {
		st := l.sched.ClusterStats()
		// Per pass; each iteration ran a paired untraced pass too.
		r.set("cluster.distributed", float64(st.Distributed-distributedBefore)/float64(2*n))
		r.set("cluster.fallback", float64(st.Fallback))
		r.set("cluster.local_reruns", float64(st.LocalReruns))
		r.set("cluster.resubmitted_bands", float64(st.ResubmittedBands))
	}
	return passMS
}

func (l *loaded) spilledPieces() int64 {
	var n int64
	for _, s := range l.stmts {
		if s.local != nil && s.spillCells > 0 {
			n += s.local.Stats().SpilledPieces.Load()
		}
	}
	return n
}

func addStats(pass map[string]float64, st *physical.Stats) {
	pass["physical.fused_tasks"] += float64(st.FusedTasks.Load())
	pass["physical.exchange_tasks"] += float64(st.ExchangeTasks.Load())
	pass["physical.shuffle_stages"] += float64(st.ShuffleStages.Load())
	pass["physical.summary_tasks"] += float64(st.ShuffleSummaryTasks.Load())
	pass["physical.partition_tasks"] += float64(st.ShufflePartitionTasks.Load())
	pass["physical.merge_tasks"] += float64(st.ShuffleMergeTasks.Load())
	pass["physical.shuffle_fallbacks"] += float64(st.ShuffleFallbacks.Load())
	pass["physical.stream_bands"] += float64(st.StreamBands.Load())
	pass["physical.released_bands"] += float64(st.StreamReleasedBands.Load())
}

// optimizedPlans are the statements' plans as the engine receives them.
func (l *loaded) optimizedPlans() ([]algebra.Node, error) {
	plans := make([]algebra.Node, len(l.stmts))
	for i, s := range l.stmts {
		q := s.query()
		if err := q.Err(); err != nil {
			return nil, err
		}
		plans[i], _ = optimizer.Optimize(q.Plan(), optimizer.Default())
	}
	return plans, nil
}

// replays runs the kernel replays and the compile probe and sets, per
// metric, the median over the rounds of one pass's total. It returns the
// busy time of one pass, the numerator of exec.parallel_efficiency.
func (l *loaded) replays(r *result, rounds int) (busyMS float64, err error) {
	plans, err := l.optimizedPlans()
	if err != nil {
		return 0, err
	}
	perRound := map[string][]float64{}
	var busy []float64
	var last *replayer
	workers := 0
	if l.sched != nil {
		workers = l.cfg.sizes.Workers
	}
	factor := l.yard.bracket(func() {
		for round := 0; round < rounds; round++ {
			rp := newReplayer(l.cfg.procs, workers, l.pool)
			rp.spillDir = l.cfg.tmpRoot
			for i, s := range l.stmts {
				l.yard.tick()
				rp.spillCells = s.spillCells
				var rows int
				if rows, err = rp.statement(plans[i]); err != nil {
					err = fmt.Errorf("replay %s: %w", s.name, err)
					return
				}
				if rows != l.want[i].rows {
					err = fmt.Errorf("replay %s produced %d rows, the engine %d", s.name, rows, l.want[i].rows)
					return
				}
				if s.local == nil {
					continue
				}
				rp.probe("modin.compile_ms", func() { _, err = s.local.Compile(plans[i]) })
				if err != nil {
					err = fmt.Errorf("compile %s: %w", s.name, err)
					return
				}
			}
			for k, v := range rp.ms {
				perRound[k] = append(perRound[k], v)
			}
			busy = append(busy, rp.busyMS)
			last = rp
		}
	})
	if err != nil {
		return 0, err
	}
	for k, v := range perRound {
		r.set(k, median(v)*factor)
	}
	if last.selectIn > 0 {
		r.set("algebra.select_rows_out_share", float64(last.selectOut)/float64(last.selectIn))
	}
	if parse := r.values["core.parse_ms"]; parse > 0 {
		r.set("core.parse_mb_per_s", float64(last.parsedBytes)/(1<<20)/(parse/1e3))
	}
	r.set("core.bands", float64(last.scanBands))
	r.set("storage.spilled_mb", float64(last.spilledBytes)/(1<<20))
	r.set("cluster.wire_mb", float64(last.wireBytes)/(1<<20))
	return median(busy) * factor, nil
}

// dispatchProbe times no-op Pool.Submit round trips: the fixed cost every
// task of a plan pays.
func (l *loaded) dispatchProbe(r *result) {
	n := dispatchProbes
	if l.cfg.quick {
		n = 100
	}
	us := make([]float64, n)
	factor := l.yard.bracket(func() {
		for i := range us {
			t0 := time.Now()
			l.pool.Submit(func() (any, error) { return nil, nil }).Wait()
			us[i] = float64(time.Since(t0)) / 1e3
		}
	})
	r.set("exec.task_dispatch_us", median(us)*factor)
}

// eagerProbe times eager.New().Execute(plan) per statement on the in-memory
// workloads, whose reference path is that engine.
func (l *loaded) eagerProbe(r *result, rounds int) error {
	if l.csvPath != "" {
		return nil
	}
	var passes []float64
	var err error
	factor := l.yard.bracket(func() {
		for round := 0; round < rounds; round++ {
			total := 0.0
			for _, s := range l.stmts {
				l.yard.tick()
				q, qerr := s.ref()
				if qerr != nil {
					err = qerr
					return
				}
				plan, _ := optimizer.Optimize(q.Plan(), optimizer.Default())
				t0 := time.Now()
				if _, xerr := eager.New().Execute(plan); xerr != nil {
					err = fmt.Errorf("eager %s: %w", s.name, xerr)
					return
				}
				total += float64(time.Since(t0)) / 1e6
			}
			passes = append(passes, total)
		}
	})
	if err != nil {
		return err
	}
	r.set("eager.execute_ms", median(passes)*factor)
	return nil
}

const fixedCostPasses = 50

// fixedCostMS is what a pass costs when there is no data to speak of: the
// same script, untraced, over 64-row inputs. From outside the engine the
// per-statement cost cannot be split further — it sits in the task DAG,
// inside physical.tasks_wait_ms — but it can be told from the cost that
// grows with the input.
func fixedCostMS(cfg *config, w *workload, t *tally, yard *yardstick) (float64, error) {
	tiny := *cfg
	tiny.sizes = cfg.sizes.tiny()
	l, err := load(&tiny, w, t, yard)
	if err != nil {
		return 0, err
	}
	defer l.unload()
	n := fixedCostPasses
	if cfg.quick {
		n = 5
	}
	return median(l.runPasses(n, false).pass), nil
}

// layerShares summarises where a pass's time goes, as shares of the
// untraced pass p50: the numbers behind the README's separation table.
func layerShares(r *result, passMS float64) string {
	share := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += r.values[n]
		}
		return 100 * sum / passMS
	}
	return strings.Join([]string{
		fmt.Sprintf("plan+schedule+split+gather %.1f%%", share("optimizer.optimize_ms", "modin.plan_launch_ms", "partition.split_ms", "partition.gather_ms")),
		fmt.Sprintf("parse+induce %.1f%%", share("core.parse_ms", "schema.induce_ms")),
		fmt.Sprintf("shuffle-phase replays %.1f%%", share("algebra.group_summarize_ms", "modin.group_plan_ms", "partition.split_rows_ms",
			"modin.group_merge_ms", "modin.group_restore_ms", "modin.sort_bounds_ms", "algebra.sort_ms", "modin.sort_merge_ms", "algebra.join_ms")),
		fmt.Sprintf("map+select replays %.1f%%", share("algebra.map_ms", "algebra.select_ms")),
		fmt.Sprintf("tasks wait %.1f%%", share("physical.tasks_wait_ms")),
	}, ", ")
}
