package physical

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/partition"
)

// Band parses one band of a stream's input, global row labels included.
type Band func() (*core.DataFrame, error)

// StreamSource is a morsel-driven leaf stage: the input is cut into an
// exact list of bands when the stage is scheduled, each band is parsed and
// pushed through the stage's fused kernel chain inside its own pool task,
// and the stage's output frame holds one promise-backed band future per
// band — so bands parse in parallel under a bounded window, a downstream
// shuffle consumes band 0 while band N is still being parsed, and no point
// in the pipeline ever holds the whole input.
type StreamSource struct {
	// Name labels the stream in plan renderings and error messages.
	Name string
	// Open cuts the input into its bands, in input order — at least one: an
	// input without records is the one zero-row band — and returns the
	// closer that releases the input once no band reads it any more. It is
	// called once per run.
	Open func() ([]Band, io.Closer, error)
	// SingleUse marks the stage's output as consumed by exactly one
	// downstream stage: its bands may then be released once routed
	// (partition.Frame.ReleaseBand), bounding resident memory.
	SingleUse bool
	// Kernels is the fused chain applied to every band, scan included —
	// filter morsels as they are parsed, not after they accumulate.
	Kernels []Kernel
}

// NewStreamSource wraps a stream source as a leaf stage.
func NewStreamSource(st *StreamSource) *Node { return &Node{Stream: st} }

// FuseStream returns a stream stage with extra kernels appended to its
// fused chain. The receiver must be a stream stage; it is not mutated.
func FuseStream(n *Node, kernels ...Kernel) *Node {
	st := *n.Stream
	st.Kernels = append(append([]Kernel(nil), n.Stream.Kernels...), kernels...)
	return &Node{Stream: &st}
}

// scheduleStream lowers a stream stage. Open runs here, synchronously, so
// an input that cannot be opened fails Run and the band count is exact; a
// producer goroutine then submits one task per band. First-band latency is
// the boundary pass over the input plus one band's parse.
func (s *Scheduler) scheduleStream(n *Node) (*Result, error) {
	st := n.Stream
	bands, input, err := st.Open()
	if err != nil {
		return nil, fmt.Errorf("physical: stream %s: %w", st.Name, err)
	}
	s.Stats.StreamStages.Add(1)
	s.Stats.StreamBands.Add(int64(len(bands)))

	futs := make([]*exec.Future, len(bands))
	resolve := make([]func(any, error), len(bands))
	for i := range futs {
		futs[i], resolve[i] = exec.NewPromise()
	}
	frame := partition.Deferred(futs)
	if st.SingleUse {
		frame.MarkTransient()
	}
	go s.produceStream(st, bands, input, frame, futs, resolve)
	return &Result{frame: frame}, nil
}

// runBand parses one band and runs the stage's fused chain over it.
func runBand(st *StreamSource, band Band) (*core.DataFrame, error) {
	raw, err := band()
	if err != nil {
		return nil, fmt.Errorf("physical: stream %s: %w", st.Name, err)
	}
	out, err := RunKernels(st.Kernels, raw)
	if err != nil {
		return nil, err
	}
	// Empty the band-local induction cache at stage exit: its memo is keyed
	// by the raw band's vectors (and holds their full typed parses), so
	// surviving entries would pin every parsed morsel for the life of the
	// query — the retention the morsel window exists to prevent. The cache
	// itself stays on the band: a shuffle downstream resolves its key and
	// aggregate columns into it once, in its partition task, and routes the
	// typed forms (core.Resolved).
	if c := out.Cache(); c != nil {
		c.Invalidate()
	}
	return out, nil
}

// produceStream submits one parse-and-chain task per band, in input order.
// Invariants that bound memory: at most parse-ahead-window bands are in
// flight at once (each raw band is owned by its task and dropped after the
// chain), and every promise resolves exactly once. A band that fails
// resolves only once every earlier band has — a task parked on their
// futures, never a blocked worker — so when several bands are malformed,
// the first malformed record's error is the query's, however the tasks
// interleave.
func (s *Scheduler) produceStream(st *StreamSource, bands []Band, input io.Closer, frame *partition.Frame, futs []*exec.Future, resolve []func(any, error)) {
	tasks := make([]*exec.Future, 0, len(bands))
	defer func() {
		// A band task reads the input until it finishes or is skipped.
		for _, t := range tasks {
			<-t.Done()
		}
		input.Close()
	}()
	fail := func(err error) {
		for _, res := range resolve {
			res(nil, err) // idempotent: already-resolved bands keep their value
		}
		s.group.Cancel(err)
	}
	// wait reports whether ch closed before the group was cancelled; on
	// cancellation it settles every promise first.
	wait := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		case <-s.group.Done():
			fail(s.group.Err())
			return false
		}
	}

	window := max(2*s.pool.Workers(), 2)
	for i, band := range bands {
		if err := s.group.Err(); err != nil {
			fail(err)
			return
		}
		if i >= window {
			// Parse-ahead window: wait for an older band's task before
			// submitting further, so bands in flight stay bounded.
			if !wait(futs[i-window].Done()) {
				return
			}
			// The consumer releases every band it routes, so hold the
			// window against RELEASE — parsed, routed, and (past the spill
			// budget) on disk. Without this the window only bounds raw
			// morsels: when routing is slower than parsing (spill admission
			// serializes on rendering and disk writes), resolved-but-unrouted
			// bands accumulate without bound, and the streamed pass-through
			// ceiling grows with the file instead of the window.
			if frame.Releasing() && !wait(frame.BandReleased(i-window)) {
				return
			}
		}
		tasks = append(tasks, s.pool.SubmitIn(s.group, func() (any, error) {
			out, err := runBand(st, band)
			if err != nil {
				s.pool.SubmitIn(s.group, func() (any, error) {
					resolve[i](nil, err)
					return nil, err
				}, futs[:i]...)
				return nil, nil
			}
			resolve[i](out, nil)
			return nil, nil
		}))
	}
	// Sweep: a band task skipped by group cancellation never ran its
	// resolver; wait settles every promise so no waiter hangs.
	for _, f := range futs {
		if !wait(f.Done()) {
			return
		}
	}
}
