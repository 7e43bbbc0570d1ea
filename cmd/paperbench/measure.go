package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/vector"
)

const checkSampleRows = 256

// checkOf samples evenly spaced cells of the first and last columns into a
// position-sensitive checksum: cheap enough for every timed statement, and
// wrong values, a wrong order or a wrong shape change it. The set-up gate
// does the full cell-by-cell comparison.
func checkOf(f *core.DataFrame) check {
	c := check{rows: f.NRows()}
	if c.rows == 0 || f.NCols() == 0 {
		return c
	}
	step := c.rows/checkSampleRows + 1
	for _, j := range []int{0, f.NCols() - 1} {
		col := f.TypedCol(j)
		for i := 0; i < c.rows; i += step {
			c.sum = c.sum*1099511628211 + vector.HashValue(col.Value(i), uint64(i))
		}
	}
	return c
}

// loaded is a workload after set-up: warm, garbage collected, with the
// checks every later statement result must reproduce.
type loaded struct {
	*env
	cfg     *config
	plan    passPlan
	want    []check // per statement, from the first warm-up pass
	inRows  int     // input rows one pass consumes
	stmtIdx map[string]int
	setupS  float64 // normalised
	tmpDir  string
	tally   *tally
	yard    *yardstick
}

// tally counts statements attempted and failed over the whole run; errs
// keeps the first few failures for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// load performs the set-up setup_s times: data generation, file write,
// engine and worker start, the warm-up passes, runtime.GC().
func load(cfg *config, w *workload, t *tally, yard *yardstick) (l *loaded, err error) {
	var start time.Time
	factor := yard.bracket(func() {
		start = time.Now()
		l, err = setUp(cfg, w, t)
	})
	if err != nil {
		return nil, err
	}
	l.yard = yard
	l.setupS = time.Since(start).Seconds() * factor
	return l, nil
}

func setUp(cfg *config, w *workload, t *tally) (*loaded, error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	e, err := w.setup(cfg, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	l := &loaded{env: e, tmpDir: dir, tally: t, plan: w.plan(cfg), cfg: cfg, stmtIdx: map[string]int{}}
	for i, s := range e.stmts {
		l.inRows += s.inRows
		l.stmtIdx[s.name] = i
	}
	for p := 0; p < l.plan.Warm; p++ {
		for i, s := range e.stmts {
			_, got, err := runStatement(s.query(), s.count)
			t.attempted++
			switch {
			case err != nil:
				t.fail("%s warm-up: %v", s.name, err)
				got = check{rows: -1}
			case p > 0 && got != l.want[i]:
				t.fail("%s warm-up: got %v, first pass gave %v", s.name, got, l.want[i])
			}
			if p == 0 {
				l.want = append(l.want, got)
			}
		}
	}
	runtime.GC()
	return l, nil
}

func (l *loaded) unload() {
	l.close()
	os.RemoveAll(l.tmpDir)
}

// passTimes are the samples of a run of passes, in yardstick-normalised
// milliseconds; raw keeps the pass times as the clock read them.
type passTimes struct {
	raw    []float64   // per pass: the sum of its statements' wall times
	pass   []float64   // raw × the factor of the yardstick samples around the pass
	stmt   [][]float64 // [statement][pass], × the whole run's factor
	wallS  float64     // first statement issued → last result checked, yardstick excluded, × factor
	factor float64     // of the whole run of passes
}

// runPasses issues n closed-loop passes: each statement through the public
// API, the next one when the previous result is back and checked. ref
// selects the workload's reference path.
func (l *loaded) runPasses(n int, ref bool) passTimes {
	pt := passTimes{raw: make([]float64, n), pass: make([]float64, n), stmt: make([][]float64, len(l.stmts))}
	for i := range pt.stmt {
		pt.stmt[i] = make([]float64, n)
	}
	starts := make([]time.Time, n+1)
	var yardTime time.Duration
	begin := time.Now()
	for p := 0; p < n; p++ {
		yardTime += l.yard.tick()
		starts[p] = time.Now()
		for i, s := range l.stmts {
			var ms float64
			var got check
			var err error
			if ref {
				// Building the reference query is part of its time: for
				// csv_stream it reads the whole file.
				t0 := time.Now()
				q, qerr := s.ref()
				build := float64(time.Since(t0)) / 1e6
				if err = qerr; err == nil {
					ms, got, err = runStatement(q, s.count)
				}
				ms += build
			} else {
				ms, got, err = runStatement(s.query(), s.count)
			}
			pt.stmt[i][p] = ms
			pt.raw[p] += ms
			l.tally.attempted++
			if err != nil {
				l.tally.fail("%s pass %d (ref=%v): %v", s.name, p, ref, err)
			} else if got != l.want[i] {
				l.tally.fail("%s pass %d (ref=%v): got %v, want %v", s.name, p, ref, got, l.want[i])
			}
		}
	}
	starts[n] = time.Now()
	l.yard.sample()
	pt.factor = l.yard.factor(begin, starts[n])
	pt.wallS = (starts[n].Sub(begin) - yardTime).Seconds() * pt.factor
	for p := range pt.pass {
		pt.pass[p] = pt.raw[p] * l.yard.factor(starts[p].Add(-yardWindow), starts[p+1].Add(yardWindow))
	}
	for _, st := range pt.stmt {
		for p := range st {
			st[p] *= pt.factor
		}
	}
	return pt
}

// gate is the correctness gate: every statement's result on the measured
// path must be cell-identical and identically ordered to the eager engine's
// on the same input, reproduce the checksum the timed passes compare
// against, and — for the CSV statements — match the sums accumulated while
// the file was generated.
func (l *loaded) gate() {
	for i, s := range l.stmts {
		l.tally.attempted++
		eq, err := l.eagerOf(s)
		if err != nil {
			l.tally.fail("%s gate: eager input: %v", s.name, err)
			continue
		}
		if s.count {
			got, err1 := s.query().Count()
			want, err2 := eq.Count()
			if err1 != nil || err2 != nil || got != want || got != l.want[i].rows {
				l.tally.fail("%s gate: count %d (%v), eager %d (%v), timed passes saw %d", s.name, got, err1, want, err2, l.want[i].rows)
			}
			continue
		}
		got, err1 := s.query().Collect()
		want, err2 := eq.Collect()
		switch {
		case err1 != nil || err2 != nil:
			l.tally.fail("%s gate: measured path: %v, eager: %v", s.name, err1, err2)
		case !got.Equal(want):
			l.tally.fail("%s gate: result differs from the eager engine's (%dx%d vs %dx%d)", s.name,
				got.Len(), len(got.Columns()), want.Len(), len(want.Columns()))
		case checkOf(got.Frame()) != l.want[i]:
			l.tally.fail("%s gate: checksum %v, timed passes compared against %v", s.name, checkOf(got.Frame()), l.want[i])
		case l.truth != nil:
			if err := l.truth(s.name, got.Frame()); err != nil {
				l.tally.fail("%s gate: against generation-time sums: %v", s.name, err)
			}
		}
	}
}

// clusterCheck runs once the cluster has executed its last statement: any
// fallback or local re-run means a statement was not measured on the
// cluster, and counts as failed.
func (l *loaded) clusterCheck() {
	if l.sched == nil {
		return
	}
	st := l.sched.ClusterStats()
	for bad := st.Fallback + st.LocalReruns; bad > 0; bad-- {
		l.tally.attempted++
		l.tally.fail("cluster: %d fallbacks %v, %d local re-runs", st.Fallback, st.FallbackReasons, st.LocalReruns)
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const setupSamples = 3

// measureEndToEnd is the untraced run: the end-to-end metrics of one
// workload.
func measureEndToEnd(cfg *config, w *workload) (*result, error) {
	t := &tally{}
	yard := newYardstick(cfg.procs)
	l, err := load(cfg, w, t, yard)
	if err != nil {
		return nil, err
	}
	setups := []float64{l.setupS}
	plan := l.plan

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timed := l.runPasses(plan.Timed, false)
	runtime.ReadMemStats(&after)
	rss := peakRSSMB() // before the gate's eager runs and the reference passes

	l.gate()
	ref := l.runPasses(plan.Ref, true)
	l.clusterCheck()
	l.unload()

	// Set-up again, only for its time: the median of several is steadier
	// than the first, cold one.
	for len(setups) < setupSamples && !cfg.quick {
		again, err := load(cfg, w, t, yard)
		if err != nil {
			return nil, err
		}
		setups = append(setups, again.setupS)
		again.unload()
	}

	passes := float64(plan.Timed)
	r := newResult(w, endToEnd, t)
	r.set("setup_s", median(setups))
	r.set("pass_p50_ms", median(timed.pass))
	r.set("pass_p90_ms", quantile(timed.pass, 0.9))
	r.set("rows_per_s", float64(l.inRows)*passes/timed.wallS)
	r.set("alloc_mb_per_pass", float64(after.TotalAlloc-before.TotalAlloc)/passes/(1<<20))
	r.set("peak_rss_mb", rss)
	r.set("ref_pass_p50_ms", median(ref.pass))
	r.notes = append(r.notes,
		fmt.Sprintf("pass samples: %d timed, %d reference; %d input rows per pass", plan.Timed, plan.Ref, l.inRows),
		fmt.Sprintf("as the clock read them: pass p50 %.4f ms, p90 %.4f ms, reference pass p50 %.4f ms", median(timed.raw), quantile(timed.raw, 0.9), median(ref.raw)),
		fmt.Sprintf("yardstick: median %.4f ms over %d samples (nominal %.1f ms); times above are × %.4f", median(yard.ms), len(yard.ms), yardNominalMS, timed.factor),
		fmt.Sprintf("df.speedup_vs_ref %.4f (ref_pass_p50_ms / pass_p50_ms)", median(ref.pass)/median(timed.pass)))
	return r, nil
}
