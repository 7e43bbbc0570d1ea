package exec

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitAndWait(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	f := p.Submit(func() (any, error) { return 42, nil })
	v, err := f.Wait()
	if err != nil || v.(int) != 42 {
		t.Fatalf("wait = %v, %v", v, err)
	}
	if !f.Ready() {
		t.Error("completed future should be ready")
	}
}

func TestSubmitError(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	sentinel := errors.New("boom")
	f := p.Submit(func() (any, error) { return nil, sentinel })
	if _, err := f.Wait(); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestTaskPanicBecomesError(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	f := p.Submit(func() (any, error) { panic("kaboom") })
	if _, err := f.Wait(); err == nil {
		t.Error("panic should surface as error")
	}
}

func TestDependencies(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var order atomic.Int32
	a := p.Submit(func() (any, error) {
		time.Sleep(10 * time.Millisecond)
		order.CompareAndSwap(0, 1)
		return "a", nil
	})
	b := p.Submit(func() (any, error) {
		if order.Load() != 1 {
			return nil, errors.New("dependency ran after dependent")
		}
		return "b", nil
	}, a)
	if _, err := b.Wait(); err != nil {
		t.Error(err)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	bad := p.Submit(func() (any, error) { return nil, errors.New("upstream") })
	ran := false
	dep := p.Submit(func() (any, error) { ran = true; return nil, nil }, bad)
	if _, err := dep.Wait(); err == nil {
		t.Error("dependent should fail")
	}
	if ran {
		t.Error("dependent body should be skipped")
	}
}

func TestForEach(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum atomic.Int64
	if err := p.ForEach(100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Errorf("sum = %d", sum.Load())
	}

	wantErr := errors.New("third")
	if err := p.ForEach(5, func(i int) error {
		if i == 3 {
			return wantErr
		}
		return nil
	}); !errors.Is(err, wantErr) {
		t.Errorf("ForEach error = %v", err)
	}
	if err := p.ForEach(0, func(int) error { return nil }); err != nil {
		t.Error("empty ForEach should be nil")
	}
}

func TestClosedPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	p.Close()
	f := p.Submit(func() (any, error) { return "inline", nil })
	v, err := f.Wait()
	if err != nil || v.(string) != "inline" {
		t.Error("closed pool should run inline")
	}
	p.Close() // double close is safe
}

func TestResolvedFailed(t *testing.T) {
	if v, err := Resolved(5).Wait(); err != nil || v.(int) != 5 {
		t.Error("Resolved wrong")
	}
	if _, err := Failed(errors.New("x")).Wait(); err == nil {
		t.Error("Failed wrong")
	}
}

func TestStatsAndWorkers(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	if p.Workers() != 3 {
		t.Error("workers wrong")
	}
	p.Submit(func() (any, error) { return nil, nil }).Wait()
	sched, done := p.Stats()
	if sched != 1 || done != 1 {
		t.Errorf("stats = %d/%d", sched, done)
	}
}

func TestDefaultPoolSized(t *testing.T) {
	if Default.Workers() < 1 {
		t.Error("default pool should have workers")
	}
}

func TestGroupCancelOnFirstError(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	g := NewGroup()
	sentinel := errors.New("first failure")
	gate := make(chan struct{})
	var skipped atomic.Int64
	bad := p.SubmitIn(g, func() (any, error) { <-gate; return nil, sentinel })
	// Queued behind bad on a 1-worker pool: by the time they start, the
	// group is cancelled and their bodies must be skipped.
	var later []*Future
	for i := 0; i < 3; i++ {
		later = append(later, p.SubmitIn(g, func() (any, error) {
			skipped.Add(1)
			return nil, nil
		}))
	}
	close(gate)
	if _, err := bad.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("bad err = %v", err)
	}
	for _, f := range later {
		if _, err := f.Wait(); err == nil {
			t.Error("task in cancelled group should fail")
		}
	}
	if skipped.Load() != 0 {
		t.Errorf("%d task bodies ran after cancellation", skipped.Load())
	}
	if !errors.Is(g.Err(), sentinel) {
		t.Errorf("group err = %v", g.Err())
	}
}

func TestGroupExplicitCancel(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := NewGroup()
	g.Cancel(nil)
	if g.Err() == nil {
		t.Fatal("nil cancel should still set an error")
	}
	select {
	case <-g.Done():
	default:
		t.Error("Done should be closed after cancel")
	}
	if _, err := p.SubmitIn(g, func() (any, error) { return 1, nil }).Wait(); err == nil {
		t.Error("submit into cancelled group should fail")
	}
	g.Cancel(errors.New("second")) // first cancellation wins
	if g.Err().Error() == "second" {
		t.Error("second cancel should not override")
	}
}

// TestGroupCancellationSkipsTaskWaitingOnDeps is the regression test for
// shuffle-merge skipping: a task already mid-wait on its (eventually
// successful) dependencies must be skipped as soon as the group cancels.
// Before the group-aware dependency wait, only direct dependents of the
// failed task were skipped — a merge whose own bucket producers all
// succeeded would still run after a sibling bucket's producer failed.
func TestGroupCancellationSkipsTaskWaitingOnDeps(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := NewGroup()
	dep, resolve := NewPromise()
	var ran atomic.Bool
	merge := p.SubmitIn(g, func() (any, error) {
		ran.Store(true)
		return nil, nil
	}, dep)
	// Let the task start and block on its unresolved dependency, then
	// cancel the group from elsewhere in the DAG.
	time.Sleep(20 * time.Millisecond)
	sentinel := errors.New("sibling bucket producer failed")
	g.Cancel(sentinel)
	// The task must resolve (skipped) without its dependency ever
	// completing.
	if _, err := merge.Wait(); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the group cancellation cause", err)
	}
	if ran.Load() {
		t.Error("task body ran after group cancellation")
	}
	resolve("late", nil) // the dependency succeeding later must not resurrect it
	time.Sleep(10 * time.Millisecond)
	if ran.Load() {
		t.Error("task body ran after its dependency resolved")
	}
}

// TestGroupCancellationAfterDependenciesSucceed covers the re-check between
// the dependency waits and the task body: every direct dependency succeeds,
// but the group is already cancelled by the time the waits finish.
func TestGroupCancellationAfterDependenciesSucceed(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := NewGroup()
	dep, resolve := NewPromise()
	var ran atomic.Bool
	f := p.SubmitIn(g, func() (any, error) {
		ran.Store(true)
		return nil, nil
	}, dep)
	time.Sleep(20 * time.Millisecond) // task is now waiting on dep
	g.Cancel(errors.New("unrelated failure"))
	resolve(1, nil) // dependency succeeds after the cancellation
	if _, err := f.Wait(); err == nil {
		t.Fatal("task in cancelled group should fail even with successful deps")
	}
	if ran.Load() {
		t.Error("task body ran in a cancelled group")
	}
}

func TestNilGroupBehavesLikeSubmit(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if v, err := p.SubmitIn(nil, func() (any, error) { return 7, nil }).Wait(); err != nil || v.(int) != 7 {
		t.Error("nil group submit wrong")
	}
}

func TestNewPromise(t *testing.T) {
	f, resolve := NewPromise()
	if f.Ready() {
		t.Fatal("fresh promise should be unresolved")
	}
	resolve(20, nil)
	resolve(99, errors.New("late")) // first completion wins
	if v, err := f.Wait(); err != nil || v.(int) != 20 {
		t.Errorf("promise = %v, %v", v, err)
	}
}

func TestForEachFromInsideWorkerDoesNotDeadlock(t *testing.T) {
	// Every worker runs a task that itself fans out via ForEach: the old
	// submit-and-wait ForEach deadlocked here (all workers blocked, inner
	// tasks never picked). The caller-participates ForEach must finish.
	p := NewPool(2)
	defer p.Close()
	var total atomic.Int64
	outer := make([]*Future, 2)
	for i := range outer {
		outer[i] = p.Submit(func() (any, error) {
			return nil, p.ForEach(8, func(int) error {
				time.Sleep(time.Millisecond)
				total.Add(1)
				return nil
			})
		})
	}
	done := make(chan struct{})
	go func() {
		for _, f := range outer {
			f.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested ForEach deadlocked")
	}
	if total.Load() != 16 {
		t.Errorf("iterations = %d", total.Load())
	}
}

func TestForEachPanicSurfacesAsError(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if err := p.ForEach(4, func(i int) error {
		if i == 2 {
			panic("iteration kaboom")
		}
		return nil
	}); err == nil {
		t.Error("iteration panic should surface as error")
	}
}
