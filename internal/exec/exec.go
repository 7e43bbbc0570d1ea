// Package exec is the execution layer of the MODIN architecture (Section
// 3.3): a task-parallel asynchronous engine in the style of Ray and Dask.
// Callers define tasks (functions plus the data they run on) and receive
// futures; tasks may declare dependencies on other futures, forming a task
// DAG that the worker pool drains.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Future is the asynchronously-computed result of a task. It is the handle
// the opportunistic evaluation layer hands back to users (Section 6.1.1).
type Future struct {
	done chan struct{}
	mu   sync.Mutex // guards val after done closes (Forget may drop it)
	val  any
	err  error
}

// newResolved returns an already-completed future.
func newResolved(val any, err error) *Future {
	f := &Future{done: make(chan struct{}), val: val, err: err}
	close(f.done)
	return f
}

// Wait blocks until the task completes and returns its result.
func (f *Future) Wait() (any, error) {
	<-f.done
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.val, f.err
}

// Forget drops a resolved future's value so the scheduler can release
// single-consumer partition blocks once every downstream task has read them
// (streaming scans would otherwise retain every parsed band for the life of
// the query). Unresolved futures are left alone; the error, if any, is kept
// so late waiters still observe failure. After Forget, Wait returns a nil
// value — callers releasing a block promise no one reads it again.
func (f *Future) Forget() {
	select {
	case <-f.done:
	default:
		return
	}
	f.mu.Lock()
	f.val = nil
	f.mu.Unlock()
}

// Ready reports whether the task has completed without blocking.
func (f *Future) Ready() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// Done exposes the completion channel for select-based waiting.
func (f *Future) Done() <-chan struct{} { return f.done }

// Pool is a fixed-size worker pool executing submitted tasks.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	workers int

	// closeMu makes task submission and Close mutually exclusive: watcher
	// goroutines (SubmitIn) enqueue dependency-gated tasks at arbitrary
	// times, and a send racing the channel close would panic.
	closeMu sync.RWMutex
	closed  bool // guarded by closeMu

	// Scheduled and Completed count tasks for instrumentation.
	scheduled atomic.Int64
	completed atomic.Int64
}

// NewPool starts a pool with the given number of workers; workers <= 0
// defaults to runtime.NumCPU().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	p := &Pool{
		tasks:   make(chan func(), workers*4),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				task()
			}
		}()
	}
	return p
}

// Default is a process-wide pool sized to the machine, mirroring how a Ray
// or Dask cluster is shared by every dataframe in a session.
var Default = NewPool(0)

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Stats returns scheduled and completed task counts.
func (p *Pool) Stats() (scheduled, completed int64) {
	return p.scheduled.Load(), p.completed.Load()
}

// Close stops the workers after draining queued tasks. Submitting to a
// closed pool runs the task synchronously.
func (p *Pool) Close() {
	p.closeMu.Lock()
	if p.closed {
		p.closeMu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.closeMu.Unlock()
	p.wg.Wait()
}

// Group is a cancellation scope for a DAG of related tasks: the first task
// that fails cancels the group, and every not-yet-started task submitted in
// the group is skipped with the group's error instead of running. Physical
// plan runs use one group per query so a failed partition task stops the
// rest of the query's work promptly.
type Group struct {
	mu   sync.Mutex
	err  error
	done chan struct{}

	// tasks counts submitted-but-unfinished tasks so Quiesce can wait for
	// the group's in-flight work to drain (a cancelled group still has tasks
	// running or parked on watcher goroutines; releasing resources they
	// touch — spill stores, shared buffers — must wait for them). A plain
	// WaitGroup would race Add against Wait across reuse, so the counter
	// shares the group mutex with a condition variable.
	tasks int
	idle  *sync.Cond
}

// NewGroup returns an empty, uncancelled group.
func NewGroup() *Group {
	g := &Group{done: make(chan struct{})}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// addTask records one submitted task.
func (g *Group) addTask() {
	g.mu.Lock()
	g.tasks++
	g.mu.Unlock()
}

// taskDone records one finished (or skipped) task.
func (g *Group) taskDone() {
	g.mu.Lock()
	g.tasks--
	if g.tasks == 0 {
		g.idle.Broadcast()
	}
	g.mu.Unlock()
}

// Quiesce blocks until every task submitted in the group has finished
// running or been skipped. Cancellation does not imply quiescence: tasks
// already on workers keep running after Cancel, and parked tasks still pass
// through their (skipping) run path. Quiesce is the fence resource teardown
// needs before reclaiming anything those stragglers might touch.
func (g *Group) Quiesce() {
	g.mu.Lock()
	for g.tasks != 0 {
		g.idle.Wait()
	}
	g.mu.Unlock()
}

// Cancel cancels the group with err (the first cancellation wins). A nil
// err cancels with a generic error.
func (g *Group) Cancel(err error) {
	if err == nil {
		err = fmt.Errorf("exec: group cancelled")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
		close(g.done)
	}
}

// Err returns the cancellation cause, or nil while the group is live.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Done exposes the cancellation channel for select-based waiting.
func (g *Group) Done() <-chan struct{} { return g.done }

// Submit schedules fn after all deps complete and returns its future. If
// any dependency failed, fn is skipped and the future carries the first
// dependency error.
func (p *Pool) Submit(fn func() (any, error), deps ...*Future) *Future {
	return p.SubmitIn(nil, fn, deps...)
}

// SubmitIn schedules fn in a cancellation group (nil behaves like Submit).
// A task whose group was cancelled before it starts is skipped, and a task
// that fails cancels its group, skipping the group's remaining tasks.
//
// A task with unsettled dependencies does NOT occupy a worker while it
// waits: it is parked on a watcher goroutine and enters the run queue only
// once every dependency has resolved (or its group cancelled). Workers
// therefore only ever execute ready tasks — without this, a pool whose
// workers all blocked on futures of still-queued tasks would deadlock
// (one-core machines hit this immediately with streaming scans: summarize
// tasks waiting on scan bands starve the band tasks they wait for).
func (p *Pool) SubmitIn(g *Group, fn func() (any, error), deps ...*Future) *Future {
	p.scheduled.Add(1)
	f := &Future{done: make(chan struct{})}
	if g != nil {
		g.addTask()
	}
	run := func() {
		defer close(f.done)
		defer p.completed.Add(1)
		if g != nil {
			defer g.taskDone()
		}
		if g != nil {
			if err := g.Err(); err != nil {
				f.err = fmt.Errorf("exec: group cancelled: %w", err)
				return
			}
		}
		for _, d := range deps {
			if g != nil {
				// Watch the group while waiting: a failure anywhere in the
				// DAG — not just in a direct dependency — skips this task
				// mid-wait. Shuffle merge tasks depend on many producers;
				// without this, a merge whose own deps succeed would still
				// run after a sibling bucket's producer failed.
				select {
				case <-g.Done():
					f.err = fmt.Errorf("exec: group cancelled: %w", g.Err())
					return
				case <-d.Done():
				}
			}
			if _, err := d.Wait(); err != nil {
				f.err = fmt.Errorf("exec: dependency failed: %w", err)
				if g != nil {
					g.Cancel(err)
				}
				return
			}
		}
		if g != nil {
			// Re-check after the waits: the group may have cancelled while
			// every direct dependency was completing successfully.
			if err := g.Err(); err != nil {
				f.err = fmt.Errorf("exec: group cancelled: %w", err)
				return
			}
		}
		defer func() {
			if r := recover(); r != nil {
				f.err = fmt.Errorf("exec: task panic: %v", r)
			}
			if g != nil && f.err != nil {
				g.Cancel(f.err)
			}
		}()
		f.val, f.err = fn()
	}
	enqueue := func() {
		if !p.trySubmit(run) {
			// Closed pool or full queue: run inline rather than deadlock;
			// inline execution also bounds memory under bursty submission.
			run()
		}
	}
	for _, d := range deps {
		if !d.Ready() {
			// Park on a watcher until the DAG settles; run's own dependency
			// pass re-checks errors and group state once on a worker.
			go func() {
				for _, d := range deps {
					if g != nil {
						select {
						case <-g.Done():
							// Cancelled: enqueue now; run sees the group
							// error and skips without touching the
							// never-resolving dependencies.
							enqueue()
							return
						case <-d.Done():
						}
					} else {
						<-d.Done()
					}
				}
				enqueue()
			}()
			return f
		}
	}
	enqueue()
	return f
}

// ForEach runs fn(i) for i in [0, n) across the pool and waits for all,
// returning the first error. The calling goroutine participates in the
// work: tasks running on pool workers (exchange stages of the physical
// layer) may call ForEach without risking deadlock when every worker is
// occupied — the caller drains the iteration space itself if no worker is
// free.
func (p *Pool) ForEach(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	record := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	wg.Add(n)
	runOne := func(i int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				record(fmt.Errorf("exec: task panic: %v", r))
			}
		}()
		if err := fn(i); err != nil {
			record(err)
		}
	}
	runner := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			runOne(i)
		}
	}
	helpers := p.workers
	if helpers > n-1 {
		helpers = n - 1
	}
	for j := 0; j < helpers; j++ {
		// Best-effort: a full queue skips the helper rather than running
		// it inline (which would drain the whole iteration space serially
		// before the caller's own runner started).
		if !p.trySubmit(func() { runner() }) {
			break
		}
	}
	runner() // the caller always participates: progress needs no free worker
	wg.Wait()
	return first
}

// trySubmit enqueues fn without blocking, reporting whether it was queued.
// Closed pools and full queues decline. The read lock excludes Close, so
// the send can never hit a closed channel.
func (p *Pool) trySubmit(fn func()) bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- fn:
		return true
	default:
		return false
	}
}

// NewPromise returns an unresolved future and the function that completes
// it (first completion wins). It bridges externally-produced results into
// the future graph without occupying a pool worker.
func NewPromise() (*Future, func(val any, err error)) {
	f := &Future{done: make(chan struct{})}
	var once sync.Once
	return f, func(val any, err error) {
		once.Do(func() {
			f.val, f.err = val, err
			close(f.done)
		})
	}
}

// Resolved wraps a value in a completed future.
func Resolved(val any) *Future { return newResolved(val, nil) }

// Failed wraps an error in a completed future.
func Failed(err error) *Future { return newResolved(nil, err) }
