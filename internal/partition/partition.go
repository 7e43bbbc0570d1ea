// Package partition implements MODIN's partitioning layer (Section 3.1): a
// dataframe decomposed into row bands, each a contiguous run of full rows.
// Every operator runs over row bands, TRANSPOSE included: transposing band
// r gives the output's column range r, so each band transposes on its own
// and no data moves between partitions — the paper's communication-free
// transpose (algebra.TransposeBands).
//
// Bands are held behind exec.Future handles, so a Frame may be *deferred*:
// its bands still being computed by the task DAG of the physical layer
// (internal/physical). Materialized frames simply hold already-resolved
// futures; accessors that need band data resolve lazily, so a deferred
// frame is only waited on at gather/render time.
package partition

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/vector"
)

// Scheme selects how a dataframe is split into partitions. Rows is the one
// scheme.
type Scheme int

// Rows partitions into horizontal bands (each partition holds a contiguous
// run of full rows).
const Rows Scheme = 0

// String names the scheme.
func (s Scheme) String() string {
	if s == Rows {
		return "rows"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Frame is a dataframe decomposed into row bands: bands[r] holds the future
// of row band r, and every band holds every column. Bands are plain core
// dataframes, so all algebra kernels apply per band.
type Frame struct {
	bands []*exec.Future // each resolves to *core.DataFrame
	// transient marks a single-consumer frame (a streaming scan's bands):
	// the one stage that reads a band may ReleaseBand it afterwards so the
	// band's cells do not stay resident for the life of the query.
	transient bool
	// Release notification: relCh[r] closes when band r is released, and
	// releasing records that the consumer promised to release EVERY routed
	// band. Together they let the producer of a streamed frame hold its
	// parse-ahead window against band release (parsed AND routed AND
	// spilled) instead of mere band resolution — without the stronger
	// signal, a consumer slower than the parser accumulates resolved bands
	// without bound.
	relMu     sync.Mutex
	relCh     map[int]chan struct{}
	releasing bool
}

// MarkTransient flags the frame as single-consumer: its bands may be
// released (ReleaseBand) by the one stage that consumes them. Returns f for
// chaining.
func (f *Frame) MarkTransient() *Frame {
	f.transient = true
	return f
}

// Transient reports whether the frame's bands may be released after their
// single consumer has read them.
func (f *Frame) Transient() bool { return f.transient }

// ReleaseBand drops the resolved value of row band r (exec.Future Forget),
// freeing the band's cells once its consumer is done with them. Errors are
// retained so late waiters still observe failure. Only meaningful on
// transient frames; callers promise no later task reads the band.
func (f *Frame) ReleaseBand(r int) {
	f.bands[r].Forget()
	f.relMu.Lock()
	ch := f.relChLocked(r)
	select {
	case <-ch:
	default:
		close(ch)
	}
	f.relMu.Unlock()
}

// MarkReleasing records the consumer's promise to ReleaseBand every band it
// routes. The stream producer keys its backpressure signal off this: only a
// consumer that releases can be waited on without deadlock.
func (f *Frame) MarkReleasing() {
	f.relMu.Lock()
	f.releasing = true
	f.relMu.Unlock()
}

// Releasing reports whether a consumer has promised to release every band.
func (f *Frame) Releasing() bool {
	f.relMu.Lock()
	defer f.relMu.Unlock()
	return f.releasing
}

// BandReleased returns a channel closed when band r is released. Wait on it
// only when Releasing() — otherwise no release may ever come.
func (f *Frame) BandReleased(r int) <-chan struct{} {
	f.relMu.Lock()
	defer f.relMu.Unlock()
	return f.relChLocked(r)
}

func (f *Frame) relChLocked(r int) chan struct{} {
	if f.relCh == nil {
		f.relCh = make(map[int]chan struct{})
	}
	ch, ok := f.relCh[r]
	if !ok {
		ch = make(chan struct{})
		f.relCh[r] = ch
	}
	return ch
}

// New partitions df into roughly targetBands row bands (typically the
// worker count), never more bands than rows; Rows is the only scheme. One
// band is df itself, so wrapping a wide result slices none of its columns.
func New(df *core.DataFrame, _ Scheme, targetBands int) *Frame {
	n := bandCount(df.NRows(), max(targetBands, 1))
	if n == 1 {
		return &Frame{bands: []*exec.Future{exec.Resolved(df)}}
	}
	cut := stackedCuts(df, n)
	bands := make([]*exec.Future, n)
	for r := range bands {
		bands[r] = exec.Resolved(df.SliceRows(cut[r], cut[r+1]))
	}
	return &Frame{bands: bands}
}

// Deferred wraps in-flight band futures (each resolving to a
// *core.DataFrame), in row order. Resolve (or any gathering accessor)
// surfaces task errors; no bands at all make one empty band.
func Deferred(bands []*exec.Future) *Frame {
	if len(bands) == 0 {
		bands = []*exec.Future{exec.Resolved(core.Empty())}
	}
	return &Frame{bands: bands}
}

func bandCount(n, target int) int {
	if n <= 0 {
		return 1
	}
	return min(target, n)
}

// cuts returns band boundaries splitting n items into bands roughly-equal
// parts.
func cuts(n, bands int) []int {
	out := make([]int, bands+1)
	for i := 0; i <= bands; i++ {
		out[i] = i * n / bands
	}
	return out
}

// stackedCuts returns the row band boundaries of df: the bands it was
// stacked from (the pieces of its chunked row labels, or of its first
// column when the labels are one positional sequence) when they are as many
// as asked and each is within half an even band of an even band's length,
// so re-banding a collected result slices inside its pieces and copies
// nothing; otherwise even cuts, so a skewed result (a join's heavy key, a
// sort's ties) does not hand its skew to the next statement. An even band
// that crosses pieces reads them through a chunk of their slices.
func stackedCuts(df *core.DataFrame, bands int) []int {
	n, pieces := df.NRows(), vector.Pieces(df.RowLabels())
	if len(pieces) == 1 && df.NCols() > 0 {
		pieces = vector.Pieces(df.Col(0))
	}
	if len(pieces) != bands {
		return cuts(n, bands)
	}
	out := make([]int, bands+1)
	for p, v := range pieces {
		if d := 2 * (bands*v.Len() - n); d > n || -d > n {
			return cuts(n, bands)
		}
		out[p+1] = out[p] + v.Len()
	}
	return out
}

// RowBands returns the number of row bands.
func (f *Frame) RowBands() int { return len(f.bands) }

// BandFuture returns the future handle of row band r without resolving it.
// The physical scheduler chains downstream task dependencies on these
// handles.
func (f *Frame) BandFuture(r int) *exec.Future { return f.bands[r] }

// RowBand resolves row band r, waiting if the band is still being computed.
func (f *Frame) RowBand(r int) (*core.DataFrame, error) {
	v, err := f.bands[r].Wait()
	if err != nil {
		return nil, err
	}
	df, ok := v.(*core.DataFrame)
	if !ok || df == nil {
		return nil, fmt.Errorf("partition: band %d task returned %T, want *core.DataFrame", r, v)
	}
	return df, nil
}

// Band resolves row band r, waiting if needed; a failed band resolves to an
// empty frame (use RowBand to observe task errors).
func (f *Frame) Band(r int) *core.DataFrame {
	df, err := f.RowBand(r)
	if err != nil {
		return core.Empty()
	}
	return df
}

// Ready reports whether every band has finished computing.
func (f *Frame) Ready() bool {
	for _, fut := range f.bands {
		if !fut.Ready() {
			return false
		}
	}
	return true
}

// Resolve waits for every band and checks that each holds band 0's
// columns, returning the first task or shape error. After a nil return,
// all band accessors are non-blocking.
func (f *Frame) Resolve() error {
	first, err := f.RowBand(0)
	if err != nil {
		return err
	}
	for r := 1; r < len(f.bands); r++ {
		band, err := f.RowBand(r)
		if err != nil {
			return err
		}
		if band.NCols() != first.NCols() {
			return fmt.Errorf("partition: band %d has %d cols, band 0 has %d", r, band.NCols(), first.NCols())
		}
	}
	return nil
}

// NRows returns the total row count, resolving every band. Like Band, this
// is a display-path accessor: a failed band counts as empty. Use Resolve
// (or ToFrame) first when task errors must surface.
func (f *Frame) NRows() int {
	n := 0
	for r := range f.bands {
		n += f.Band(r).NRows()
	}
	return n
}

// NCols returns the column count, resolving band 0, with the same
// failed-band degradation as NRows.
func (f *Frame) NCols() int { return f.Band(0).NCols() }

// ToFrame gathers every band back into one dataframe in order, waiting for
// any still-computing bands. Bands stack positionally: gathering never
// realigns columns by label, so transposed frames with numeric or duplicate
// labels reassemble exactly. The gather copies no cell
// (algebra.VStackFrames): the result's columns are chunks of the bands'
// storage, and New at the same band count cuts it back at those bands
// when they are balanced (stackedCuts).
func (f *Frame) ToFrame() (*core.DataFrame, error) {
	bands := make([]*core.DataFrame, len(f.bands))
	for r := range bands {
		b, err := f.RowBand(r)
		if err != nil {
			return nil, err
		}
		bands[r] = b
	}
	return algebra.VStackFrames(bands...)
}

// SplitRows routes df's rows into buckets per the selection vector assign
// (assign[i] names row i's bucket), preserving input order within each
// bucket. Bucket frames are zero-copy views over df's column storage
// (core.DataFrame.ViewRows): the shuffle partition phase routes rows
// between bands without copying cells — only the per-bucket index vectors
// are allocated.
// Buckets receiving no rows come back as empty frames that keep df's
// columns, so downstream merges see a uniform arity.
//
// The views are cut from the resolved band (core.DataFrame.Resolved): a raw
// column df already induced routes as its typed form, domain declared, so
// the merge, spill or wire a piece goes to never re-parses — or re-induces
// over fewer rows — what the band settled.
func SplitRows(df *core.DataFrame, assign []int, buckets int) ([]*core.DataFrame, error) {
	if buckets < 1 {
		return nil, fmt.Errorf("partition: split into %d buckets", buckets)
	}
	if len(assign) != df.NRows() {
		return nil, fmt.Errorf("partition: %d bucket assignments for %d rows", len(assign), df.NRows())
	}
	df = df.Resolved()
	counts := make([]int, buckets)
	for i, b := range assign {
		if b < 0 || b >= buckets {
			return nil, fmt.Errorf("partition: row %d assigned to bucket %d of %d", i, b, buckets)
		}
		counts[b]++
	}
	idx := make([][]int, buckets)
	backing := make([]int, len(assign))
	for b := range idx {
		idx[b] = backing[:0:counts[b]]
		backing = backing[counts[b]:]
	}
	for i, b := range assign {
		idx[b] = append(idx[b], i)
	}
	out := make([]*core.DataFrame, buckets)
	for b := range out {
		out[b] = df.ViewRows(idx[b])
	}
	return out, nil
}
