package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/df"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/optimizer"
	"repro/internal/partition"
	"repro/internal/physical"
)

// span is one timed call into a layer's public function. Spans of one pass
// share its id; Parent is the index of the enclosing span, -1 for a root.
// They are recorded from the benchmark's own files, around the calls into
// each layer — spans inside the engine are a later change (ROADMAP item 2).
type span struct {
	Name   string `json:"name"`
	Stmt   string `json:"stmt,omitempty"`
	Pass   int    `json:"pass"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; writeTo dumps them when the run ends. It is
// used from one goroutine (the closed-loop client), so open spans nest.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	pass  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, stmt string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Stmt: stmt, Pass: t.pass, Parent: parent, Start: int64(time.Since(t.t0))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// in runs fn inside a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name, "")
	fn()
	t.end(id)
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover. Over a tree the self times sum to
// the root's duration. spans is a window of the recorder starting at index
// base; parents lie inside the window.
func selfTimes(spans []span, base int) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= base {
			self[s.Parent-base] -= s.dur()
		}
	}
	return self
}

func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

const rootSpan = "df.statement"

// stagedResult is what one staged statement produced besides its spans.
type stagedResult struct {
	out   *core.DataFrame
	rules int
	stats *physical.Stats // the run's scheduler counters; nil on the cluster
}

// staged executes one statement through the public entry points Collect
// goes through — optimizer.Optimize → (*modin.Engine).Schedule →
// Result.Frame().Resolve() → Frame.ToFrame() — one span per call under a
// df.statement root. On the cluster the engine surface is one call,
// Scheduler.Execute.
func (t *tracer) staged(s statement) (stagedResult, error) {
	var r stagedResult
	q := s.query()
	if err := q.Err(); err != nil {
		return r, err
	}
	root := t.begin(rootSpan, s.name)
	defer t.end(root)

	var plan algebra.Node
	t.in("optimizer.optimize", func() {
		var rules []string
		plan, rules = optimizer.Optimize(q.Plan(), optimizer.Default())
		r.rules = len(rules)
	})
	var err error
	if s.sched != nil {
		t.in("cluster.execute", func() { r.out, err = s.sched.Execute(plan) })
		return r, err
	}
	var res *physical.Result
	var sched *physical.Scheduler
	t.in("modin.schedule", func() { res, sched, err = s.local.Schedule(plan) })
	if err != nil {
		return r, err
	}
	r.stats = &sched.Stats
	var pf *partition.Frame
	t.in("physical.wait", func() {
		if pf, err = res.Frame(); err == nil {
			err = pf.Resolve()
		}
	})
	if err == nil {
		t.in("partition.gather", func() { r.out, err = pf.ToFrame() })
	}
	// Collect frees the engine's per-run spill files when it returns.
	t.in("storage.release", func() {
		if rerr := s.local.ReleaseSpill(); err == nil {
			err = rerr
		}
	})
	return r, err
}

// runStatement executes one statement the way the user does — the lazy
// query through Collect or Count — and returns how long that took, in
// milliseconds as the clock read them, and the check of its result.
func runStatement(q *df.Query, count bool) (float64, check, error) {
	t0 := time.Now()
	if count {
		n, err := q.Count()
		return float64(time.Since(t0)) / 1e6, check{rows: n}, err
	}
	out, err := q.Collect()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return ms, check{}, err
	}
	return ms, checkOf(out.Frame()), nil
}

// check is the cheap per-result verification of the timed passes: the row
// count plus a sampled checksum (checkOf).
type check struct {
	rows int
	sum  uint64
}

func (c check) String() string { return fmt.Sprintf("rows=%d sum=%016x", c.rows, c.sum) }
