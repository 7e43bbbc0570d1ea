package algebra

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dferrors"
)

// Scan is a leaf node describing a CSV source that has not been
// materialized: the engine parses it band-by-band at execution time, so a
// file larger than memory streams through the plan instead of being read
// whole at bind time (the out-of-core analog of Source). Its bytes are the
// file at Path, or Data; either is re-read on every execution, so a Scan
// plan stays re-runnable.
type Scan struct {
	// Name labels the scan in plan renderings ("csv", or the file path).
	Name string
	// Path is the backing file path, "" for buffer-backed scans. Error
	// messages carry it so a failure names its source.
	Path string
	// Columns are the header column labels, read once when the query was
	// built; they make the scan's output schema statically known.
	Columns []string
	// Data holds the raw input bytes of a buffer-backed scan (nil for a
	// file-backed one).
	Data []byte
	// Options configure the CSV dialect.
	Options core.CSVOptions
	// SizeHint is the total input size in bytes (0 when unknown), shown by
	// Explain.
	SizeHint int64
	// BandRows is the number of records per band; 0 selects
	// DefaultBandRows.
	BandRows int
}

// DefaultBandRows is a scan's band size when the plan does not choose one.
const DefaultBandRows = 32768

// BandSize returns the scan's records per band.
func (s *Scan) BandSize() int {
	if s.BandRows > 0 {
		return s.BandRows
	}
	return DefaultBandRows
}

// Children returns no inputs.
func (s *Scan) Children() []Node { return nil }

// Describe renders the node.
func (s *Scan) Describe() string {
	name := s.Name
	if name == "" {
		name = "csv"
	}
	return fmt.Sprintf("SCAN(%s, %d cols)", name, len(s.Columns))
}

// input opens the scan's bytes.
func (s *Scan) input() (*core.CSVInput, error) {
	in, err := core.OpenCSVInput(s.Path, s.Data)
	if err != nil {
		return nil, s.sourceErr(err)
	}
	return in, nil
}

// Bands opens the scan's input once and cuts it into bands of BandSize
// records — the one boundary pass a local stream and a cluster coordinator
// both run. Each band is read with in.ReadBand; the caller closes in. An
// open or read failure wraps ErrScanSource and names the path.
func (s *Scan) Bands() (in *core.CSVInput, ranges []core.BandRange, err error) {
	if in, err = s.input(); err != nil {
		return nil, nil, err
	}
	if ranges, err = in.FindBands(s.Options.Header, s.BandSize()); err != nil {
		in.Close()
		return nil, nil, s.sourceErr(err)
	}
	return in, ranges, nil
}

// sourceErr wraps a failure to open or probe the scan's bytes.
func (s *Scan) sourceErr(err error) error {
	if s.Path == "" {
		return fmt.Errorf("algebra: scan csv: %w: %w", dferrors.ErrScanSource, err)
	}
	return fmt.Errorf("algebra: scan csv %q: %w: %w", s.Path, dferrors.ErrScanSource, err)
}

// Cursor opens the scan's source as a streaming CSV cursor.
func (s *Scan) Cursor() (*core.CSVCursor, error) {
	in, err := s.input()
	if err != nil {
		return nil, err
	}
	cur, err := in.Cursor(s.Options)
	if err != nil {
		return nil, s.sourceErr(err)
	}
	return cur, nil
}

// Probe reads the scan's column labels from its source: the header, or a
// headerless input's positional names from its first record. Nil when the
// input has neither.
func (s *Scan) Probe() ([]string, error) {
	cur, err := s.Cursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	if !s.Options.Header {
		if _, err := cur.NextBand(1); err != nil && err != io.EOF {
			return nil, s.sourceErr(err)
		}
	}
	return cur.Columns(), nil
}

// ReadAll materializes the scan's whole input as one frame — the in-memory
// fallback the eager engine uses. It parses through the same cursor as a
// serial read, in a single band, so it agrees with every banding cell for
// cell.
func (s *Scan) ReadAll() (*core.DataFrame, error) {
	cur, err := s.Cursor()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	df, err := cur.NextBand(math.MaxInt)
	if err == io.EOF {
		return cur.Empty(), nil
	}
	return df, err
}
