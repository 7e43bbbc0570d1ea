package physical

import (
	"fmt"
	"io"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/partition"
	"repro/internal/vector"
)

// DefaultStreamBandRows is the morsel size of a streaming scan when the
// plan does not choose one.
const DefaultStreamBandRows = 32768

// maxStreamBands caps the scheduled band grid of one stream: estimation
// slack past the cap concatenates into the final band instead of growing
// the task count without bound.
const maxStreamBands = 1024

// StreamCursor produces a source's bands one morsel at a time. NextBand
// returns io.EOF once the input is exhausted; BytesRead lets the scheduler
// extrapolate a band-count estimate from the first band's byte footprint;
// Empty is the zero-row band sharing the stream's column shape.
type StreamCursor interface {
	NextBand(maxRows int) (*core.DataFrame, error)
	BytesRead() int64
	Empty() *core.DataFrame
	Close() error
}

// StreamSource is a morsel-driven leaf stage: the input is parsed
// band-by-band on a dedicated producer goroutine, each band is pushed
// through the stage's fused kernel chain as its own pool task, and the
// stage's output frame holds one promise-backed block future per band — so
// a downstream shuffle consumes band 0 while band N is still being parsed,
// and no point in the pipeline ever holds the whole input.
type StreamSource struct {
	// Name labels the stream in plan renderings and error messages.
	Name string
	// Open starts a fresh cursor over the input; called once per run.
	Open func() (StreamCursor, error)
	// BandRows caps rows per morsel (0 = DefaultStreamBandRows).
	BandRows int
	// SizeHint is the total input size in bytes, 0 when unknown; with the
	// first band's byte footprint it sizes the band grid.
	SizeHint int64
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

// streamBandCount sizes the band grid from the first band's byte footprint.
func streamBandCount(sizeHint, firstBandBytes int64, workers int) int {
	b := 1
	switch {
	case sizeHint > 0 && firstBandBytes > 0:
		est := int(sizeHint / firstBandBytes)
		// Slack: CSV rows vary in width, so leave headroom before the
		// overflow-into-last-band fallback kicks in.
		b = est + est/8 + 2
	case sizeHint == 0:
		// Unknown input size: give the pool something to chew on and let
		// the final band absorb the rest.
		b = 4 * workers
	}
	if b > maxStreamBands {
		b = maxStreamBands
	}
	if b < 1 {
		b = 1
	}
	return b
}

// scheduleStream lowers a stream stage: the first band parses synchronously
// (so first-band latency depends on the band size, never the file size),
// the rest on a producer goroutine that keeps a bounded parse-ahead window.
func (s *Scheduler) scheduleStream(n *Node) (*Result, error) {
	st := n.Stream
	bandRows := st.BandRows
	if bandRows <= 0 {
		bandRows = DefaultStreamBandRows
	}
	chain := func(df *core.DataFrame) (*core.DataFrame, error) {
		out, err := runKernels(st.Kernels, df)
		if err != nil {
			return nil, err
		}
		// Empty the band-local induction cache at stage exit: its memo is
		// keyed by the raw band's vectors (and holds their full typed
		// parses), so surviving entries would pin every parsed morsel for
		// the life of the query — the retention the morsel window exists to
		// prevent. The cache itself stays on the band: a shuffle downstream
		// resolves its key and aggregate columns into it once, in its
		// summarize task, and routes the typed forms (core.Resolved).
		if c := out.Cache(); c != nil {
			c.Invalidate()
		}
		return out, nil
	}
	cur, err := st.Open()
	if err != nil {
		return nil, fmt.Errorf("physical: stream %s: %w", st.Name, err)
	}
	first, ferr := cur.NextBand(bandRows)
	eof := false
	switch {
	case ferr == io.EOF:
		eof = true
	case ferr != nil:
		cur.Close()
		return nil, fmt.Errorf("physical: stream %s: %w", st.Name, ferr)
	}

	b := 1
	if !eof {
		b = streamBandCount(st.SizeHint, cur.BytesRead(), s.pool.Workers())
	}
	s.Stats.StreamStages.Add(1)
	s.Stats.StreamBands.Add(int64(b))

	futs := make([]*exec.Future, b)
	resolve := make([]func(any, error), b)
	grid := make([][]*exec.Future, b)
	for i := range futs {
		futs[i], resolve[i] = exec.NewPromise()
		grid[i] = []*exec.Future{futs[i]}
	}
	frame, err := partition.Deferred(grid)
	if err != nil {
		cur.Close()
		return nil, err
	}
	if st.SingleUse {
		frame.MarkTransient()
	}
	go s.produceStream(st, cur, chain, first, eof, bandRows, frame, futs, resolve)
	return &Result{frame: frame}, nil
}

// produceStream parses morsels sequentially and fans each out as one kernel
// task. Invariants that bound memory: at most parse-ahead-window raw bands
// exist at once (each owned by its task's closure, dropped after the
// chain); the final band absorbs any morsels past the estimated grid as
// already-chained (filtered) outputs; tail bands that never arrive resolve
// to the chained empty band so every promise resolves exactly once.
func (s *Scheduler) produceStream(st *StreamSource, cur StreamCursor, chain func(*core.DataFrame) (*core.DataFrame, error), first *core.DataFrame, eof bool, bandRows int, frame *partition.Frame, futs []*exec.Future, resolve []func(any, error)) {
	defer cur.Close()
	b := len(futs)
	window := 2 * s.pool.Workers()
	if window < 2 {
		window = 2
	}
	wrap := func(err error) error { return fmt.Errorf("physical: stream %s: %w", st.Name, err) }
	fail := func(err error) {
		for _, res := range resolve {
			res(nil, err) // idempotent: already-resolved bands keep their value
		}
		s.group.Cancel(err)
	}

	var overflow []*core.DataFrame
	i, offset := 0, int64(0)
	raw := first
	for raw != nil {
		if err := s.group.Err(); err != nil {
			fail(err)
			return
		}
		// Bands carry global row labels so the streamed result is
		// cell-identical to a whole-file read split after the fact.
		labeled, err := raw.WithRowLabels(vector.Range(offset, raw.NRows()))
		if err != nil {
			fail(wrap(err))
			return
		}
		offset += int64(raw.NRows())
		if i < b-1 {
			if i >= window {
				// Parse-ahead window: wait for an older band's task before
				// parsing further, so raw morsels in flight stay bounded.
				select {
				case <-futs[i-window].Done():
				case <-s.group.Done():
					fail(s.group.Err())
					return
				}
				if frame.Releasing() {
					// The consumer releases every band it routes, so hold
					// the window against RELEASE — parsed, routed, and
					// (past the spill budget) on disk. Without this the
					// window only bounds raw morsels: when routing is
					// slower than parsing (spill admission serializes on
					// rendering and disk writes), resolved-but-unrouted
					// bands accumulate without bound, and the streamed
					// pass-through ceiling grows with the file instead of
					// the window.
					select {
					case <-frame.BandReleased(i - window):
					case <-s.group.Done():
						fail(s.group.Err())
						return
					}
				}
			}
			band, res := labeled, resolve[i]
			s.pool.SubmitIn(s.group, func() (any, error) {
				out, err := chain(band)
				res(out, err)
				return out, err
			})
		} else {
			// Past the estimated grid: run the chain inline and collect the
			// (already filtered/compacted) outputs for the final band.
			out, err := chain(labeled)
			if err != nil {
				fail(err)
				return
			}
			overflow = append(overflow, out)
		}
		i++
		raw = nil
		if !eof {
			nb, err := cur.NextBand(bandRows)
			switch {
			case err == io.EOF:
				eof = true
			case err != nil:
				fail(wrap(err))
				return
			default:
				raw = nb
			}
		}
	}

	if i < b-1 || len(overflow) == 0 {
		emptyOut, err := chain(cur.Empty())
		if err != nil {
			fail(err)
			return
		}
		for j := i; j < b-1; j++ {
			resolve[j](emptyOut, nil)
		}
		if len(overflow) == 0 {
			resolve[b-1](emptyOut, nil)
		}
	}
	switch len(overflow) {
	case 0:
	case 1:
		resolve[b-1](overflow[0], nil)
	default:
		cat, err := algebra.VStackFrames(overflow...)
		if err != nil {
			fail(wrap(err))
			return
		}
		resolve[b-1](cat, nil)
	}
	// Sweep: a band task skipped by group cancellation never ran its
	// resolver; fail() below settles every promise so no waiter hangs.
	for j := 0; j < b; j++ {
		select {
		case <-futs[j].Done():
		case <-s.group.Done():
			fail(s.group.Err())
			return
		}
	}
}
