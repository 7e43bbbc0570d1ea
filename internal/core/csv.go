package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/types"
	"repro/internal/vector"
)

// CSVOptions configures CSV ingest.
type CSVOptions struct {
	// Comma is the field delimiter (default ',').
	Comma rune
	// Header indicates the first record carries column labels.
	Header bool
	// InduceNow runs schema induction eagerly at ingest; the default is
	// the paper's lazy typing, deferring S until a column is operated on.
	InduceNow bool
}

// DefaultCSVOptions reads comma-separated data with a header row and lazy
// typing.
func DefaultCSVOptions() CSVOptions { return CSVOptions{Comma: ',', Header: true} }

// ReadCSV ingests CSV data as a dataframe. Per Section 5.2.1, the frame's
// row and column order is the file's order, and — matching the untyped
// reality of csv files — every column starts as raw Σ* with an unspecified
// domain unless InduceNow is set.
func ReadCSV(r io.Reader, opts CSVOptions) (*DataFrame, error) {
	// The whole file is one band of the streaming cursor, so both ingest
	// paths share one records→columns transposition.
	cur, err := NewCSVCursor(r, opts)
	if err != nil {
		return nil, err
	}
	df, err := cur.NextBand(math.MaxInt)
	if err == io.EOF {
		df = cur.Empty() // no data rows: header-only or empty input
	} else if err != nil {
		return nil, err
	}
	if opts.InduceNow {
		for j := 0; j < df.NCols(); j++ {
			typed := df.TypedCol(j)
			df.cols[j] = typed
		}
	}
	return df, nil
}

// ReadCSVString ingests CSV text.
func ReadCSVString(s string, opts CSVOptions) (*DataFrame, error) {
	return ReadCSV(strings.NewReader(s), opts)
}

// ReadCSVFile ingests a CSV file.
func ReadCSVFile(path string, opts CSVOptions) (*DataFrame, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f, opts)
}

// WriteCSV writes the frame as CSV with a header row. Row labels are not
// written (matching pandas' to_csv(index=False)); use FROMLABELS first to
// keep them.
func (df *DataFrame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(df.ColNames()); err != nil {
		return err
	}
	rec := make([]string, df.NCols())
	for i := 0; i < df.NRows(); i++ {
		for j := range rec {
			v := df.RawValue(i, j)
			if v.IsNull() {
				rec[j] = ""
			} else {
				rec[j] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FromRecords builds a dataframe from row-oriented records of native Go
// values, inducing each cell through types.FromGo.
func FromRecords(names []string, records [][]any) (*DataFrame, error) {
	builders := make([]*vector.Builder, len(names))
	for j := range builders {
		builders[j] = vector.NewObjectBuilder(len(records))
	}
	typed := make([][]types.Value, len(names))
	for j := range typed {
		typed[j] = make([]types.Value, 0, len(records))
	}
	for i, rec := range records {
		if len(rec) != len(names) {
			return nil, fmt.Errorf("core: record %d has %d fields, want %d", i, len(rec), len(names))
		}
		for j, cell := range rec {
			typed[j] = append(typed[j], types.FromGo(cell))
		}
	}
	cols := make([]vector.Vector, len(names))
	for j := range cols {
		cols[j] = columnFromValues(typed[j])
	}
	return New(names, cols)
}

// MustFromRecords is FromRecords, panicking on error.
func MustFromRecords(names []string, records [][]any) *DataFrame {
	df, err := FromRecords(names, records)
	if err != nil {
		panic(err)
	}
	return df
}

// columnFromValues picks the narrowest domain covering all the values
// (treating nulls as wildcards) and builds a typed vector; mixed-domain
// columns fall back to Object.
func columnFromValues(vals []types.Value) vector.Vector {
	dom := types.Unspecified
	mixed := false
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		d := v.Domain()
		switch {
		case dom == types.Unspecified:
			dom = d
		case dom == d:
		case dom == types.Int && d == types.Float, dom == types.Float && d == types.Int:
			dom = types.Float
		default:
			mixed = true
		}
	}
	if mixed || dom == types.Unspecified {
		dom = types.Object
	}
	return vector.FromValues(dom, vals)
}
