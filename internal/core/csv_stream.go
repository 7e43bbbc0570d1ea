package core

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/dferrors"
	"repro/internal/vector"
)

// CSVCursor parses CSV input morsel-by-morsel: NextBand returns up to
// maxRows records as a dataframe band, so a scan of a bigger-than-RAM file
// never holds more than one raw band of cells at a time. It drives the
// module's one CSV scanner (encoding/csv's grammar, reimplemented so a
// record copies out only the fields the band keeps), reading one record at
// a time through a small buffer, so a quoted record spanning a band
// boundary (embedded newlines, commas) parses exactly as it would in a
// whole-file read — banding is a property of the cursor, not the grammar.
//
// Schema stays per Section 5.2.1: every band's columns are raw Σ* with
// unspecified domains, induced lazily by whichever operator touches them.
type CSVCursor struct {
	rc       io.Closer // closes the underlying source; may be nil
	s        *csvScanner
	names    []string // the file's columns
	keep     []string // the labels Keep asked for; empty = every column
	out      []string // band column labels: keep, or names
	idx      []int    // out[k] is file column idx[k]; built once names is known
	sel      []int    // the file columns a record materializes: idx sorted, without repeats
	slot     []int    // out[k] is the record's materialized field slot[k]
	row      int      // data rows read so far (for error positions)
	bandRows int      // the input's record count when known (a band), sizing its columns
	eof      bool
	closed   bool
}

// bandCapHint caps the rows a band's columns are sized for up front when
// the input's record count is unknown; a whole-file read (maxRows
// unbounded) grows past it by appending.
const bandCapHint = 4096

// NewCSVCursor opens a cursor over r. When opts.Header is set the header
// record is consumed immediately, so Columns is known before any band is
// read; headerless input names columns positionally from the first record's
// width at first read. If r is an io.Closer, Close closes it.
func NewCSVCursor(r io.Reader, opts CSVOptions) (*CSVCursor, error) {
	c := &CSVCursor{s: newCSVScanner(r, opts.Comma, 0)}
	if rc, ok := r.(io.Closer); ok {
		c.rc = rc
	}
	if opts.Header {
		n, err := c.s.readRecord(nil)
		switch {
		case err == io.EOF:
			c.eof = true
		case err != nil:
			return nil, fmt.Errorf("core: read csv: %w", err)
		default:
			rec := string(c.s.fields)
			c.names = make([]string, n)
			for j := range c.names {
				c.names[j] = c.cell(rec, j)
			}
		}
	}
	return c, nil
}

// cell returns materialized field i of the scanner's last record, sliced
// from rec, the string of all its materialized fields.
func (c *CSVCursor) cell(rec string, i int) string {
	start := 0
	if i > 0 {
		start = c.s.ends[i-1]
	}
	return rec[start:c.s.ends[i]]
}

// Columns returns the file's column names, nil until known (headerless
// input before the first record, or an empty file). Keep does not change
// them.
func (c *CSVCursor) Columns() []string { return c.names }

// Keep restricts every later band (and Empty) to the named columns, in the
// order given: each band equals the projection of the full band onto cols,
// a duplicated file label resolving to its first occurrence. Records are
// still split and width-checked whole, so malformed input fails with the
// same row and message whatever is kept, and BytesRead is unaffected; only
// the kept fields are copied out of the input. A label the file does not
// have fails the next read. An empty list keeps every column. Call Keep
// before the first NextBand; cols must not change afterwards.
func (c *CSVCursor) Keep(cols []string) {
	c.keep, c.idx, c.sel, c.slot = cols, nil, nil, nil
}

// resolve maps the band columns onto file columns once the file's names are
// known: the identity when nothing was kept.
func (c *CSVCursor) resolve() error {
	if c.idx != nil || c.names == nil {
		return nil
	}
	idx := make([]int, len(c.names))
	out := c.names
	if len(c.keep) == 0 {
		for j := range idx {
			idx[j] = j
		}
	} else {
		idx, out = idx[:len(c.keep)], c.keep
		for k, name := range c.keep {
			if idx[k] = slices.Index(c.names, name); idx[k] < 0 {
				return fmt.Errorf("core: csv keep of %w %q", dferrors.ErrUnknownColumn, name)
			}
		}
	}
	sel := slices.Clone(idx)
	slices.Sort(sel)
	sel = slices.Compact(sel)
	slot := make([]int, len(idx))
	for k, j := range idx {
		slot[k], _ = slices.BinarySearch(sel, j)
	}
	c.out, c.idx, c.sel, c.slot = out, idx, sel, slot
	return nil
}

// BytesRead returns the input offset consumed so far: the end of the last
// record read, and of any blank lines read past it.
func (c *CSVCursor) BytesRead() int64 { return c.s.offset }

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
	// Each record's kept fields become one string, and its cells are
	// slices of it: a cell that outlives its band pins only its own
	// record's kept bytes.
	var colData [][]string
	// A kept label the file lacks fails the read only after its records
	// passed the width check, whatever is kept.
	keepErr := c.resolve()
	rows := 0
	for rows < maxRows {
		sel := c.sel // nil until the names are known: every field
		n, err := c.s.readRecord(sel)
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
			c.names = make([]string, n)
			for j := range c.names {
				c.names[j] = fmt.Sprintf("%d", j)
			}
			keepErr = c.resolve()
		}
		if n != len(c.names) {
			return nil, fmt.Errorf("core: csv row %d has %d fields, want %d", c.row, n, len(c.names))
		}
		c.row++
		rows++
		if keepErr != nil {
			continue
		}
		if colData == nil {
			size := min(maxRows, bandCapHint)
			if c.bandRows > 0 {
				size = min(maxRows, c.bandRows)
			}
			colData = make([][]string, len(c.out))
			for k := range colData {
				colData[k] = make([]string, 0, size)
			}
		}
		from := c.slot
		if sel == nil {
			from = c.idx // the record materialized every field
		}
		rec := string(c.s.fields)
		for k, f := range from {
			colData[k] = append(colData[k], c.cell(rec, f))
		}
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
