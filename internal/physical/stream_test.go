package physical

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
)

// fakeSource serves pre-split bands as a stream's band list — an input with
// fully controlled contents, pacing and error injection.
type fakeSource struct {
	bands  []*core.DataFrame
	failAt []int // these bands' parses fail
	slow   int   // this band's parse sleeps first; -1 = none
	closed atomic.Bool
}

func (f *fakeSource) open() ([]Band, io.Closer, error) {
	bands := make([]Band, len(f.bands))
	for i, b := range f.bands {
		bands[i] = func() (*core.DataFrame, error) {
			if i == f.slow {
				time.Sleep(20 * time.Millisecond)
			}
			for _, bad := range f.failAt {
				if i == bad {
					return nil, fmt.Errorf("synthetic parse failure in band %d", i)
				}
			}
			return b, nil
		}
	}
	return bands, f, nil
}

func (f *fakeSource) Close() error {
	f.closed.Store(true)
	return nil
}

// waitClosed waits out the producer goroutine's deferred Close — the gather
// error can surface a beat before the producer unwinds.
func (f *fakeSource) waitClosed() bool {
	for i := 0; i < 100; i++ {
		if f.closed.Load() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// splitDF slices df into rows-sized bands; each keeps its global row labels,
// as a band read from its byte range does.
func splitDF(df *core.DataFrame, rows int) []*core.DataFrame {
	var bands []*core.DataFrame
	for lo := 0; lo < df.NRows(); lo += rows {
		bands = append(bands, df.SliceRows(lo, min(lo+rows, df.NRows())))
	}
	return bands
}

func streamNode(src *fakeSource, kernels ...Kernel) *Node {
	return NewStreamSource(&StreamSource{Name: "fake", Open: src.open, Kernels: kernels})
}

func runStream(t *testing.T, n *Node) (*core.DataFrame, *Scheduler, error) {
	t.Helper()
	pool := exec.NewPool(2)
	defer pool.Close()
	s := NewScheduler(pool)
	res, err := s.Run(n)
	if err != nil {
		return nil, s, err
	}
	frame, err := res.Frame()
	if err != nil {
		return nil, s, err
	}
	out, err := frame.ToFrame()
	return out, s, err
}

// TestStreamMatchesWholeRead: a stream gathers to the exact source frame —
// one block per listed band, labels and all — and closes its input.
func TestStreamMatchesWholeRead(t *testing.T) {
	df := testDF(100)
	src := &fakeSource{bands: splitDF(df, 10), slow: -1}
	out, s, err := runStream(t, streamNode(src))
	if err != nil {
		t.Fatal(err)
	}
	if !df.Equal(out) {
		t.Fatalf("streamed gather differs from source:\n%s\nvs\n%s", out, df)
	}
	if !src.waitClosed() {
		t.Error("input not closed after drain")
	}
	if got := s.Stats.StreamStages.Load(); got != 1 {
		t.Errorf("stream stages = %d", got)
	}
	if got := s.Stats.StreamBands.Load(); got != 10 {
		t.Errorf("stream bands = %d, want 10", got)
	}
}

// TestStreamFusedKernels: the fused chain runs per band and the gathered
// result equals the kernel applied to the whole frame.
func TestStreamFusedKernels(t *testing.T) {
	df := testDF(100)
	out, _, err := runStream(t, streamNode(&fakeSource{bands: splitDF(df, 10), slow: -1}, selectEven()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := selectEven().Fn(df)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(out) {
		t.Fatalf("fused stream differs:\n%s\nvs\n%s", out, want)
	}
}

// TestStreamMidErrorPropagates: a band's parse failure — the first band
// included, which parses as a task like every other — turns into a query
// error on gather (never a hang), carrying the stream name; the input is
// closed. With two failing bands, the earlier one's error wins even when
// its parse finishes last.
func TestStreamMidErrorPropagates(t *testing.T) {
	df := testDF(100)
	for _, tc := range []struct {
		failAt []int
		slow   int
	}{
		{failAt: []int{0}, slow: -1},
		{failAt: []int{4}, slow: -1},
		{failAt: []int{4, 5}, slow: 4},
	} {
		src := &fakeSource{bands: splitDF(df, 10), failAt: tc.failAt, slow: tc.slow}
		_, _, err := runStream(t, streamNode(src))
		want := fmt.Sprintf("physical: stream fake: synthetic parse failure in band %d", tc.failAt[0])
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("failAt=%v: error %v, want it to end in %q", tc.failAt, err, want)
		}
		if !src.waitClosed() {
			t.Errorf("failAt=%v: input not closed after failure", tc.failAt)
		}
	}
}

// TestStreamOpenErrorIsSynchronous: Open failures surface from Run.
func TestStreamOpenErrorIsSynchronous(t *testing.T) {
	n := NewStreamSource(&StreamSource{
		Name: "broken",
		Open: func() ([]Band, io.Closer, error) { return nil, nil, errors.New("no such file") },
	})
	pool := exec.NewPool(2)
	defer pool.Close()
	s := NewScheduler(pool)
	_, err := s.Run(n)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("want open error naming the stream, got %v", err)
	}
}

// TestStreamSingleUseMarksTransient: SingleUse streams hand downstream
// stages a transient frame (release-after-route eligible).
func TestStreamSingleUseMarksTransient(t *testing.T) {
	df := testDF(20)
	for _, single := range []bool{true, false} {
		n := streamNode(&fakeSource{bands: splitDF(df, 10), slow: -1})
		n.Stream.SingleUse = single
		pool := exec.NewPool(2)
		s := NewScheduler(pool)
		res, err := s.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := res.Frame()
		if err != nil {
			t.Fatal(err)
		}
		if frame.Transient() != single {
			t.Errorf("SingleUse=%v: transient = %v", single, frame.Transient())
		}
		if err := frame.Resolve(); err != nil {
			t.Fatal(err)
		}
		pool.Close()
	}
}
