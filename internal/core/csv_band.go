package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/vector"
)

// BandRange is one band of a CSV scan: the bytes from its first record to
// the next band's (or EOF), and that record's place in the whole input. A
// pure function of the input, the header flag and the band size, it is the
// lineage a lost cluster band is re-submitted by.
type BandRange struct {
	Offset int64 // byte offset of the band's first record
	Length int64 // byte length of the band
	Row    int64 // global row index of the band's first record
	Line   int64 // input lines before the band's first record
	Rows   int   // record count
}

// CSVInput is a CSV scan's bytes, opened once: a file, read at any offset
// (os.File.ReadAt is safe for concurrent use), or a buffer read in place.
// FindBands cuts it into bands and ReadBand parses one, from as many
// goroutines at once as there are bands.
type CSVInput struct {
	data []byte      // an in-memory input, scanned in place
	file *os.File    // a file input
	at   io.ReaderAt // what bands read: file, or data
}

// OpenCSVInput opens the file at path, or wraps data when path is "".
func OpenCSVInput(path string, data []byte) (*CSVInput, error) {
	if path == "" {
		return &CSVInput{data: data, at: bytes.NewReader(data)}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &CSVInput{file: f, at: f}, nil
}

// Close releases the file, if any. No band may be read after it.
func (in *CSVInput) Close() error {
	if in.file == nil {
		return nil
	}
	return in.file.Close()
}

// Cursor returns a cursor over the whole input — the serial reading, header
// included. Closing the cursor closes the input.
func (in *CSVInput) Cursor(opts CSVOptions) (*CSVCursor, error) {
	cur, err := NewCSVCursor(struct {
		io.Reader
		io.Closer
	}{io.NewSectionReader(in.at, 0, math.MaxInt64), in}, opts)
	if err != nil {
		in.Close()
	}
	return cur, err
}

// FindBands cuts the input into bands of bandRows records, the last holding
// the rest; a header record belongs to no band. Records are counted as the
// CSV scanner reads them, with no delimiter and no field parsed: a '\n'
// ends a record unless an odd number of '"' precede it in the record, and a
// record of only "\n" or "\r\n" (at EOF, "" or "\r") is a skipped blank
// line. Malformed input is no error here: every boundary before its first
// malformed record is exact, so that record's band fails its parse with the
// scanner's *csv.ParseError text, and an unterminated quote runs the last
// band to EOF. A file is read through one 64 KiB buffer, memory in place.
func (in *CSVInput) FindBands(header bool, bandRows int) ([]BandRange, error) {
	if bandRows <= 0 {
		return nil, fmt.Errorf("core: csv band size %d, want > 0", bandRows)
	}
	f := &bandFinder{header: header, bandRows: bandRows, recOff: -1}
	if in.file == nil {
		f.scan(in.data)
		return f.finish(), nil
	}
	return f.read(io.NewSectionReader(in.at, 0, math.MaxInt64), make([]byte, 64<<10))
}

// bandFinder is FindBands' state between the chunks of one pass.
type bandFinder struct {
	header   bool // the header record is still to be skipped
	bandRows int
	off      int64 // bytes scanned
	lines    int64 // '\n' bytes scanned
	quoted   bool  // the current record has an odd number of '"' so far
	recOff   int64 // the current record's first byte; -1 between records
	recLine  int64 // lines before the current record
	recCR    bool  // the current record's first byte is '\r'
	row      int64 // data records counted
	bands    []BandRange
}

var quote = []byte{'"'}

// scan consumes the next chunk of the input.
func (f *bandFinder) scan(p []byte) {
	for len(p) > 0 {
		if f.recOff < 0 {
			f.recOff, f.recLine, f.recCR = f.off, f.lines, p[0] == '\r'
		}
		seg := p
		nl := bytes.IndexByte(p, '\n')
		if nl >= 0 {
			seg = p[:nl+1]
		}
		if bytes.Count(seg, quote)&1 == 1 {
			f.quoted = !f.quoted
		}
		f.off += int64(len(seg))
		p = p[len(seg):]
		if nl < 0 {
			return
		}
		f.lines++
		if !f.quoted {
			f.endRecord(f.off - f.recOff - 1)
		}
	}
}

// read runs the pass over r, one len(buf) chunk at a time.
func (f *bandFinder) read(r io.Reader, buf []byte) ([]BandRange, error) {
	for {
		n, err := r.Read(buf)
		f.scan(buf[:n])
		if err == io.EOF {
			return f.finish(), nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// finish counts an unterminated last record and closes the last band at
// EOF.
func (f *bandFinder) finish() []BandRange {
	if f.recOff >= 0 {
		f.endRecord(f.off - f.recOff)
	}
	if k := len(f.bands); k > 0 {
		f.bands[k-1].Length = f.off - f.bands[k-1].Offset
	}
	return f.bands
}

// endRecord ends the current record, whose body (terminator excluded) is
// body bytes long: a blank line is skipped, the header is consumed, and a
// data record joins the open band or starts the next one.
func (f *bandFinder) endRecord(body int64) {
	start := f.recOff
	f.recOff = -1
	if body == 0 || body == 1 && f.recCR {
		return
	}
	if f.header {
		f.header = false
		return
	}
	k := len(f.bands)
	if k == 0 || f.bands[k-1].Rows == f.bandRows {
		if k > 0 {
			f.bands[k-1].Length = start - f.bands[k-1].Offset
		}
		f.bands = append(f.bands, BandRange{Offset: start, Row: f.row, Line: f.recLine})
		k++
	}
	f.bands[k-1].Rows++
	f.row++
}

// ReadBand parses one band as a frame with global row labels, its columns
// named cols (the scan's probed header or positional names) and kept as
// CSVCursor.Keep keeps them. It is a headerless cursor over the band's
// bytes whose line count starts at the range's Line and row count at its
// Row, so a malformed record fails with the text a whole-input ReadCSV
// reports. The zero BandRange reads as the zero-row band. Only opts.Comma
// applies.
func (in *CSVInput) ReadBand(rng BandRange, opts CSVOptions, cols, keep []string) (*DataFrame, error) {
	cur := &CSVCursor{
		s:        newCSVScanner(io.NewSectionReader(in.at, rng.Offset, rng.Length), opts.Comma, int(rng.Line)),
		names:    cols,
		row:      int(rng.Row),
		bandRows: rng.Rows,
	}
	cur.Keep(keep)
	var band *DataFrame
	var err error
	if rng.Rows > 0 {
		if band, err = cur.NextBand(rng.Rows); err != nil && err != io.EOF {
			return nil, err
		}
	}
	if band == nil {
		band = cur.Empty()
	}
	if band.NRows() != rng.Rows {
		return nil, fmt.Errorf("core: csv band at byte %d parsed %d rows, want %d", rng.Offset, band.NRows(), rng.Rows)
	}
	return band.WithRowLabels(vector.Range(rng.Row, rng.Rows))
}
