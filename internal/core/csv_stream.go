package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"

	"repro/internal/dferrors"
	"repro/internal/vector"
)

// CSVCursor parses CSV input morsel-by-morsel: NextBand returns up to
// maxRows records as a dataframe band, so a scan of a bigger-than-RAM file
// never holds more than one raw band of cells at a time. Records are read
// through encoding/csv one at a time, so a quoted record spanning a band
// boundary (embedded newlines, commas) parses exactly as it would in a
// whole-file read — banding is a property of the cursor, not the grammar.
//
// Schema stays per Section 5.2.1: every band's columns are raw Σ* with
// unspecified domains, induced lazily by whichever operator touches them.
type CSVCursor struct {
	rc     io.Closer // closes the underlying source; may be nil
	r      *csv.Reader
	names  []string // the file's columns
	keep   []string // the labels Keep asked for; empty = every column
	out    []string // band column labels: keep, or names
	idx    []int    // out[k] is file column idx[k]; built once names is known
	row    int      // data rows read so far (for error positions)
	eof    bool
	closed bool
}

// bandCapHint caps the rows a band's columns are sized for up front; a
// whole-file read (maxRows unbounded) grows past it by appending.
const bandCapHint = 4096

// NewCSVCursor opens a cursor over r. When opts.Header is set the header
// record is consumed immediately, so Columns is known before any band is
// read; headerless input names columns positionally from the first record's
// width at first read. If r is an io.Closer, Close closes it.
func NewCSVCursor(r io.Reader, opts CSVOptions) (*CSVCursor, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	c := &CSVCursor{r: cr}
	if rc, ok := r.(io.Closer); ok {
		c.rc = rc
	}
	if opts.Header {
		rec, err := cr.Read()
		switch {
		case err == io.EOF:
			c.eof = true
		case err != nil:
			return nil, fmt.Errorf("core: read csv: %w", err)
		default:
			c.names = slices.Clone(rec) // the reader reuses rec
		}
	}
	return c, nil
}

// Columns returns the file's column names, nil until known (headerless
// input before the first record, or an empty file). Keep does not change
// them.
func (c *CSVCursor) Columns() []string { return c.names }

// Keep restricts every later band (and Empty) to the named columns, in the
// order given: each band equals the projection of the full band onto cols,
// a duplicated file label resolving to its first occurrence. Records are
// still read and width-checked whole, so malformed input fails with the same
// row and message whatever is kept, and BytesRead is unaffected; only the
// transposition into columns and their null masks skip the dropped cells. A
// label the file does not have fails the next read. An empty list keeps
// every column. Call Keep before the first NextBand; cols must not change
// afterwards.
func (c *CSVCursor) Keep(cols []string) {
	c.keep, c.idx = cols, nil
}

// resolve maps the band columns onto file columns once the file's names are
// known: the identity when nothing was kept.
func (c *CSVCursor) resolve() error {
	if c.idx != nil || c.names == nil {
		return nil
	}
	if len(c.keep) == 0 {
		c.out, c.idx = c.names, make([]int, len(c.names))
		for j := range c.idx {
			c.idx[j] = j
		}
		return nil
	}
	idx := make([]int, len(c.keep))
	for k, name := range c.keep {
		if idx[k] = slices.Index(c.names, name); idx[k] < 0 {
			return fmt.Errorf("core: csv keep of %w %q", dferrors.ErrUnknownColumn, name)
		}
	}
	c.out, c.idx = c.keep, idx
	return nil
}

// BytesRead returns the input offset consumed so far; scan scheduling uses
// the first band's byte footprint to estimate the band count of the rest of
// the file.
func (c *CSVCursor) BytesRead() int64 { return c.r.InputOffset() }

// Empty returns a zero-row band with the cursor's band columns — the shape
// every band of this scan shares. Before the header is known, or when a kept
// label is not in it, it is the 0×0 frame.
func (c *CSVCursor) Empty() *DataFrame {
	if len(c.names) == 0 || c.resolve() != nil {
		return Empty()
	}
	cols := make([]vector.Vector, len(c.out))
	for k := range cols {
		cols[k] = vector.NewObjectFromStrings(nil)
	}
	return MustNew(c.out, cols)
}

// NextBand reads up to maxRows records and returns them as a band. It
// returns io.EOF (and no band) once the input is exhausted; a band holding
// the final records is returned with a nil error first.
func (c *CSVCursor) NextBand(maxRows int) (*DataFrame, error) {
	if c.eof {
		return nil, io.EOF
	}
	if maxRows <= 0 {
		return nil, fmt.Errorf("core: csv band size %d, want > 0", maxRows)
	}
	// Each record is transposed into the kept columns as it is read: the
	// reader reuses one record slice (only the cell strings are fresh), so
	// nothing row-shaped outlives the read that filled it.
	var colData [][]string
	var keepErr error
	rows := 0
	for rows < maxRows {
		rec, err := c.r.Read()
		if err == io.EOF {
			c.eof = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: read csv: %w", err)
		}
		if c.names == nil {
			// Headerless input: columns are named positionally from the
			// first record, exactly as ReadCSV names them.
			c.names = make([]string, len(rec))
			for j := range c.names {
				c.names[j] = fmt.Sprintf("%d", j)
			}
		}
		if len(rec) != len(c.names) {
			return nil, fmt.Errorf("core: csv row %d has %d fields, want %d", c.row, len(rec), len(c.names))
		}
		if rows == 0 {
			// A kept label the file lacks fails the read only after its
			// records passed the width check, whatever is kept.
			keepErr = c.resolve()
			colData = make([][]string, len(c.idx))
			for k := range colData {
				colData[k] = make([]string, 0, min(maxRows, bandCapHint))
			}
		}
		for k, j := range c.idx {
			colData[k] = append(colData[k], rec[j])
		}
		c.row++
		rows++
	}
	if rows == 0 {
		return nil, io.EOF
	}
	if keepErr != nil {
		return nil, keepErr
	}
	cols := make([]vector.Vector, len(colData))
	for k := range cols {
		cols[k] = vector.NewObjectFromStrings(colData[k])
	}
	return New(c.out, cols)
}

// Close releases the underlying source. It is idempotent.
func (c *CSVCursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.eof = true
	if c.rc != nil {
		return c.rc.Close()
	}
	return nil
}
