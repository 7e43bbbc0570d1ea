// Package partition implements MODIN's flexible partitioning layer (Section
// 3.1): a dataframe decomposed into a grid of blocks under row-based,
// column-based, or block-based partitioning, with cheap movement between
// schemes and the communication-free block transpose of Section 3.1
// ("Supporting billions of columns").
//
// Blocks are held behind exec.Future handles, so a Frame may be *deferred*:
// its blocks still being computed by the task DAG of the physical layer
// (internal/physical). Materialized frames simply hold already-resolved
// futures; accessors that need block data resolve lazily, so a deferred
// frame is only waited on at gather/render time.
package partition

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/types"
	"repro/internal/vector"
)

// Scheme selects how a dataframe is split into partitions.
type Scheme int

const (
	// Rows partitions into horizontal bands (each partition holds a
	// contiguous run of full rows).
	Rows Scheme = iota
	// Cols partitions into vertical bands (full columns).
	Cols
	// Blocks partitions into a 2-D grid of row×column blocks, the layout
	// that makes TRANSPOSE communication-free.
	Blocks
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Rows:
		return "rows"
	case Cols:
		return "cols"
	case Blocks:
		return "blocks"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Frame is a dataframe decomposed into a grid of blocks. grid[r][c] holds
// the future of the block at row-band r and column-band c; every block in a
// row band shares row labels, and every block in a column band shares
// column labels. Blocks are plain core dataframes, so all algebra kernels
// apply per block.
type Frame struct {
	grid [][]*exec.Future // each resolves to *core.DataFrame
	// transient marks a single-consumer frame (a streaming scan's bands):
	// the one stage that reads a block may ReleaseBand it afterwards so the
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

// MarkTransient flags the frame as single-consumer: its blocks may be
// released (ReleaseBand) by the one stage that consumes them. Returns f for
// chaining.
func (f *Frame) MarkTransient() *Frame {
	f.transient = true
	return f
}

// Transient reports whether the frame's blocks may be released after their
// single consumer has read them.
func (f *Frame) Transient() bool { return f.transient }

// ReleaseBand drops the resolved block values of row band r (exec.Future
// Forget), freeing the band's cells once its consumer is done with them.
// Errors are retained so late waiters still observe failure. Only
// meaningful on transient frames; callers promise no later task reads the
// band.
func (f *Frame) ReleaseBand(r int) {
	for _, fut := range f.grid[r] {
		fut.Forget()
	}
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

// New partitions df under the given scheme, splitting so that roughly
// targetBands partitions exist along each partitioned axis (typically the
// worker count).
func New(df *core.DataFrame, scheme Scheme, targetBands int) *Frame {
	if targetBands <= 0 {
		targetBands = 1
	}
	rowBands, colBands := 1, 1
	switch scheme {
	case Rows:
		rowBands = bandCount(df.NRows(), targetBands)
	case Cols:
		colBands = bandCount(df.NCols(), targetBands)
	case Blocks:
		rowBands = bandCount(df.NRows(), targetBands)
		colBands = bandCount(df.NCols(), targetBands)
	}
	rowCuts := stackedCuts(df, rowBands)
	colCuts := cuts(df.NCols(), colBands)

	grid := make([][]*exec.Future, len(rowCuts)-1)
	for r := range grid {
		band := df.SliceRows(rowCuts[r], rowCuts[r+1])
		grid[r] = make([]*exec.Future, len(colCuts)-1)
		for c := range grid[r] {
			idx := make([]int, 0, colCuts[c+1]-colCuts[c])
			for j := colCuts[c]; j < colCuts[c+1]; j++ {
				idx = append(idx, j)
			}
			grid[r][c] = exec.Resolved(band.SelectCols(idx))
		}
	}
	return &Frame{grid: grid}
}

// FromGrid wraps an existing materialized block grid. Every row band must
// have the same number of column bands, blocks in a row band the same row
// count, and blocks in a column band the same column count.
func FromGrid(grid [][]*core.DataFrame) (*Frame, error) {
	if len(grid) == 0 {
		return &Frame{grid: [][]*exec.Future{{exec.Resolved(core.Empty())}}}, nil
	}
	width := len(grid[0])
	out := make([][]*exec.Future, len(grid))
	for r, band := range grid {
		if len(band) != width {
			return nil, fmt.Errorf("partition: row band %d has %d blocks, want %d", r, len(band), width)
		}
		out[r] = make([]*exec.Future, width)
		for c, blk := range band {
			if blk.NRows() != band[0].NRows() {
				return nil, fmt.Errorf("partition: block (%d,%d) has %d rows, band has %d", r, c, blk.NRows(), band[0].NRows())
			}
			if blk.NCols() != grid[0][c].NCols() {
				return nil, fmt.Errorf("partition: block (%d,%d) has %d cols, column band has %d", r, c, blk.NCols(), grid[0][c].NCols())
			}
			out[r][c] = exec.Resolved(blk)
		}
	}
	return &Frame{grid: out}, nil
}

// Deferred wraps a grid of in-flight block futures (each resolving to a
// *core.DataFrame). Shape invariants cannot be checked until the blocks
// exist; Resolve (or any gathering accessor) validates and surfaces task
// errors.
func Deferred(grid [][]*exec.Future) (*Frame, error) {
	if len(grid) == 0 {
		return &Frame{grid: [][]*exec.Future{{exec.Resolved(core.Empty())}}}, nil
	}
	width := len(grid[0])
	for r, band := range grid {
		if len(band) != width {
			return nil, fmt.Errorf("partition: row band %d has %d blocks, want %d", r, len(band), width)
		}
	}
	return &Frame{grid: grid}, nil
}

func bandCount(n, target int) int {
	if n <= 0 {
		return 1
	}
	if target > n {
		target = n
	}
	if target < 1 {
		target = 1
	}
	return target
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
// stacked from (the pieces of its chunked row labels) when they are as many
// as asked and each is within half an even band of an even band's length,
// so re-banding a collected result slices inside its pieces and copies
// nothing; otherwise even cuts, so a skewed result (a join's heavy key, a
// sort's ties) does not hand its skew to the next statement. An even band
// that crosses pieces reads them through a chunk of their slices.
func stackedCuts(df *core.DataFrame, bands int) []int {
	n, pieces := df.NRows(), vector.Pieces(df.RowLabels())
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
func (f *Frame) RowBands() int { return len(f.grid) }

// ColBands returns the number of column bands.
func (f *Frame) ColBands() int {
	if len(f.grid) == 0 {
		return 0
	}
	return len(f.grid[0])
}

// BlockFuture returns the future handle of the block at (r, c) without
// resolving it. The physical scheduler chains downstream task dependencies
// on these handles.
func (f *Frame) BlockFuture(r, c int) *exec.Future { return f.grid[r][c] }

// BlockErr resolves the block at row band r, column band c, waiting if the
// block is still being computed.
func (f *Frame) BlockErr(r, c int) (*core.DataFrame, error) {
	v, err := f.grid[r][c].Wait()
	if err != nil {
		return nil, err
	}
	df, ok := v.(*core.DataFrame)
	if !ok || df == nil {
		return nil, fmt.Errorf("partition: block (%d,%d) task returned %T, want *core.DataFrame", r, c, v)
	}
	return df, nil
}

// Block resolves the block at (r, c), waiting if needed; a failed block
// resolves to an empty frame (use BlockErr to observe task errors).
func (f *Frame) Block(r, c int) *core.DataFrame {
	df, err := f.BlockErr(r, c)
	if err != nil {
		return core.Empty()
	}
	return df
}

// Ready reports whether every block has finished computing.
func (f *Frame) Ready() bool {
	for _, band := range f.grid {
		for _, fut := range band {
			if !fut.Ready() {
				return false
			}
		}
	}
	return true
}

// Resolve waits for every block and validates the frame's shape invariants,
// returning the first task or shape error. After a nil return, all block
// accessors are non-blocking.
func (f *Frame) Resolve() error {
	for r := range f.grid {
		for c := range f.grid[r] {
			blk, err := f.BlockErr(r, c)
			if err != nil {
				return err
			}
			first, err := f.BlockErr(r, 0)
			if err != nil {
				return err
			}
			if blk.NRows() != first.NRows() {
				return fmt.Errorf("partition: block (%d,%d) has %d rows, band has %d", r, c, blk.NRows(), first.NRows())
			}
			top, err := f.BlockErr(0, c)
			if err != nil {
				return err
			}
			if blk.NCols() != top.NCols() {
				return fmt.Errorf("partition: block (%d,%d) has %d cols, column band has %d", r, c, blk.NCols(), top.NCols())
			}
		}
	}
	return nil
}

// NRows returns the total row count, resolving the first column of blocks.
// Like Block, this is a display-path accessor: a failed block counts as
// empty. Use Resolve (or ToFrame) first when task errors must surface.
func (f *Frame) NRows() int {
	n := 0
	for r := range f.grid {
		n += f.Block(r, 0).NRows()
	}
	return n
}

// NCols returns the total column count, resolving the first row of blocks,
// with the same failed-block degradation as NRows.
func (f *Frame) NCols() int {
	if len(f.grid) == 0 {
		return 0
	}
	n := 0
	for c := range f.grid[0] {
		n += f.Block(0, c).NCols()
	}
	return n
}

// HStack combines frames holding the same rows into one wider frame: column
// vectors, labels, and domains concatenate; row labels come from the first.
func HStack(frames ...*core.DataFrame) (*core.DataFrame, error) {
	if len(frames) == 0 {
		return core.Empty(), nil
	}
	if len(frames) == 1 {
		return frames[0], nil
	}
	var cols []vector.Vector
	var labels []types.Value
	var doms []types.Domain
	for _, fr := range frames {
		if fr.NRows() != frames[0].NRows() {
			return nil, fmt.Errorf("partition: hstack row mismatch: %d vs %d", fr.NRows(), frames[0].NRows())
		}
		cols = append(cols, fr.Columns()...)
		labels = append(labels, fr.ColLabels()...)
		doms = append(doms, fr.Domains()...)
	}
	return core.Build(cols, frames[0].RowLabels(), labels, doms, frames[0].Cache())
}

// RowBand gathers row band r into a single full-width frame, resolving its
// blocks.
func (f *Frame) RowBand(r int) (*core.DataFrame, error) {
	blocks := make([]*core.DataFrame, len(f.grid[r]))
	for c := range f.grid[r] {
		blk, err := f.BlockErr(r, c)
		if err != nil {
			return nil, err
		}
		blocks[c] = blk
	}
	return HStack(blocks...)
}

// ToFrame gathers every block back into one dataframe in order, waiting for
// any still-computing blocks. Bands stack positionally: gathering never
// realigns columns by label, so transposed frames with numeric or duplicate
// labels reassemble exactly. The gather copies no cell
// (algebra.VStackFrames): the result's columns are chunks of the bands'
// storage, and New at the same band count cuts it back at those bands
// when they are balanced (stackedCuts).
func (f *Frame) ToFrame() (*core.DataFrame, error) {
	bands := make([]*core.DataFrame, f.RowBands())
	for r := range f.grid {
		b, err := f.RowBand(r)
		if err != nil {
			return nil, err
		}
		bands[r] = b
	}
	return algebra.VStackFrames(bands...)
}

// Transpose performs MODIN's communication-free transpose (Section 3.1):
// each block is transposed independently in parallel, and the grid metadata
// swaps block coordinates. No data moves between partitions. A declared
// schema has one domain per input row; block (r, c) declares the slice for
// row band r's rows, which become its output columns.
func (f *Frame) Transpose(pool *exec.Pool, declared []types.Domain) (*Frame, error) {
	rb, cb := f.RowBands(), f.ColBands()
	first := make([]int, rb+1) // first[r]: row band r's first row
	for r := 0; r < rb; r++ {
		blk, err := f.BlockErr(r, 0)
		if err != nil {
			return nil, err
		}
		first[r+1] = first[r] + blk.NRows()
	}
	if declared != nil && len(declared) != first[rb] {
		return nil, fmt.Errorf("partition: transpose declared schema has %d domains, want %d", len(declared), first[rb])
	}
	out := make([][]*core.DataFrame, cb)
	for c := range out {
		out[c] = make([]*core.DataFrame, rb)
	}
	err := pool.ForEach(rb*cb, func(i int) error {
		r, c := i/cb, i%cb
		blk, err := f.BlockErr(r, c)
		if err != nil {
			return err
		}
		var schema []types.Domain
		if declared != nil {
			schema = declared[first[r]:first[r+1]]
		}
		t, err := algebra.TransposeFrame(blk, schema)
		if err != nil {
			return err
		}
		out[c][r] = t // metadata swap: block (r,c) lands at (c,r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FromGrid(out)
}

// Repartition re-splits the gathered frame under a new scheme.
func (f *Frame) Repartition(scheme Scheme, targetBands int) (*Frame, error) {
	df, err := f.ToFrame()
	if err != nil {
		return nil, err
	}
	return New(df, scheme, targetBands), nil
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
