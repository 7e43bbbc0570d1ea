package core_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dferrors"
	"repro/internal/vector"
)

// readBanded parses text k rows at a time and stacks the bands back into
// one positionally-labelled frame — what a streamed scan assembles.
func readBanded(text string, opts core.CSVOptions, k int) (*core.DataFrame, error) {
	cur, err := core.NewCSVCursor(strings.NewReader(text), opts)
	if err != nil {
		return nil, err
	}
	var bands []*core.DataFrame
	for {
		band, err := cur.NextBand(k)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		bands = append(bands, band)
	}
	if len(bands) == 0 {
		return cur.Empty(), nil
	}
	df, err := algebra.VStackFrames(bands...)
	if err != nil {
		return nil, err
	}
	return df.WithRowLabels(vector.Range(0, df.NRows()))
}

var (
	withHeader = core.DefaultCSVOptions()
	headerless = core.CSVOptions{Comma: ','}
)

// csvCases are the inputs every reading of one file must agree on: quoting,
// line endings, header handling, and the two malformed-record errors.
var csvCases = []struct {
	name       string
	text       string
	opts       core.CSVOptions
	rows, cols int
	err        string
}{
	{name: "quoted newline", text: "a,b\n1,\"x\ny\"\n2,z\n3,\"p,q\"\n", opts: withHeader, rows: 3, cols: 2},
	{name: "escaped quote", text: "a,b\n\"he said \"\"hi\"\"\",2\n\"\",4\n", opts: withHeader, rows: 2, cols: 2},
	{name: "crlf", text: "a,b\r\n1,2\r\n3,4\r\n", opts: withHeader, rows: 2, cols: 2},
	{name: "blank lines", text: "a,b\n1,2\n\n\n3,4\n5,6", opts: withHeader, rows: 3, cols: 2},
	{name: "headerless", text: "1,2,3\n4,5,6\n7,8,9\n", opts: headerless, rows: 3, cols: 3},
	{name: "header only", text: "a,b,c\n", opts: withHeader, rows: 0, cols: 3},
	{name: "empty", text: "", opts: withHeader, rows: 0, cols: 0},
	{name: "empty headerless", text: "", opts: headerless, rows: 0, cols: 0},
	{name: "induce now", text: "a,b\n1,x\n2,y\n", opts: core.CSVOptions{Comma: ',', Header: true, InduceNow: true}, rows: 2, cols: 2},
	{name: "headerless wide first record", text: "1,2,3,4\n5,6,7,8\n", opts: headerless, rows: 2, cols: 4},
	{name: "ragged", text: "a,b\n1,2\n3\n4,5\n", opts: withHeader, err: "core: csv row 1 has 1 fields, want 2"},
	{name: "ragged past the first bands", text: "a,b\n" + strings.Repeat("1,2\n", 9) + "3,4,5\n6,7\n", opts: withHeader, err: "core: csv row 9 has 3 fields, want 2"},
	{name: "ragged headerless", text: "1,2,3\n4,5\n", opts: headerless, err: "core: csv row 1 has 2 fields, want 3"},
	{name: "bare quote", text: "a,b\n1,x\"y\n", opts: withHeader, err: `core: read csv: parse error on line 2, column 4: bare " in non-quoted-field`},
}

// ReadCSV is the cursor's one-band case, so the whole-file read and every
// banding of the same input must agree on cells, labels, shape and errors.
func TestReadCSVMatchesBandedCursor(t *testing.T) {
	for _, tc := range csvCases {
		whole, wholeErr := core.ReadCSVString(tc.text, tc.opts)
		if tc.err != "" {
			if wholeErr == nil || wholeErr.Error() != tc.err {
				t.Errorf("%s: ReadCSV error = %v, want %q", tc.name, wholeErr, tc.err)
			}
		} else if wholeErr != nil {
			t.Errorf("%s: ReadCSV: %v", tc.name, wholeErr)
			continue
		} else if whole.NRows() != tc.rows || whole.NCols() != tc.cols {
			t.Errorf("%s: ReadCSV shape %dx%d, want %dx%d", tc.name, whole.NRows(), whole.NCols(), tc.rows, tc.cols)
		}
		for _, k := range []int{1, 7, math.MaxInt} {
			banded, err := readBanded(tc.text, tc.opts, k)
			if tc.err != "" {
				if err == nil || err.Error() != wholeErr.Error() {
					t.Errorf("%s k=%d: banded error = %v, want %v", tc.name, k, err, wholeErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s k=%d: banded read: %v", tc.name, k, err)
				continue
			}
			if !whole.Equal(banded) {
				t.Errorf("%s k=%d: banded read differs from ReadCSV:\nwhole:\n%s\nbanded:\n%s", tc.name, k, whole, banded)
			}
		}
	}
}

// checkKeep reads text twice in lockstep, k rows at a time — every column,
// and only keep — and reports the first disagreement: each kept band must
// Equal the projection of the full band, a failing read must fail both ways
// with one message, and the two cursors must have consumed the same bytes
// (scan scheduling sizes its band grid from BytesRead).
func checkKeep(text string, opts core.CSVOptions, k int, keep []string) error {
	full, err := core.NewCSVCursor(strings.NewReader(text), opts)
	if err != nil {
		return nil // an unreadable header fails before any column is chosen
	}
	kept, err := core.NewCSVCursor(strings.NewReader(text), opts)
	if err != nil {
		return fmt.Errorf("second open failed: %v", err)
	}
	kept.Keep(keep)
	// The cursor reuses one record buffer across reads: each band is held
	// while the next is read and then re-checked cell by cell, so a band
	// aliasing the buffer shows as cells that changed under it.
	var held *core.DataFrame
	var heldCells [][]string
	var names []string
	for band := 0; ; band++ {
		want, wantErr := full.NextBand(k)
		got, gotErr := kept.NextBand(k)
		if held != nil {
			for j, cells := range heldCells {
				if now := vector.Strings(held.Col(j)); !slices.Equal(now, cells) {
					return fmt.Errorf("band %d column %d changed while band %d was read: %q, was %q", band-1, j, band, now, cells)
				}
			}
		}
		if names != nil && !slices.Equal(kept.Columns(), names) {
			return fmt.Errorf("band %d: the cursor's columns became %q, were %q", band, kept.Columns(), names)
		}
		names = slices.Clone(kept.Columns())
		if full.BytesRead() != kept.BytesRead() {
			return fmt.Errorf("band %d: BytesRead %d with keep, %d without", band, kept.BytesRead(), full.BytesRead())
		}
		if wantErr != nil || gotErr != nil {
			if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				return fmt.Errorf("band %d: error %v with keep, %v without", band, gotErr, wantErr)
			}
			break
		}
		if want, err = algebra.Project(want, keep); err != nil {
			return fmt.Errorf("band %d: %v", band, err)
		}
		if !want.Equal(got) {
			return fmt.Errorf("band %d with keep:\n%s\nprojection of the full band:\n%s", band, got, want)
		}
		held, heldCells = got, make([][]string, got.NCols())
		for j := range heldCells {
			heldCells[j] = vector.Strings(got.Col(j))
		}
	}
	if len(full.Columns()) > 0 {
		want, err := algebra.Project(full.Empty(), keep)
		if err != nil {
			return err
		}
		if got := kept.Empty(); !want.Equal(got) {
			return fmt.Errorf("Empty with keep:\n%s\nprojection of the full Empty:\n%s", got, want)
		}
	}
	return nil
}

// keepOf picks the columns whose bit is set in mask, reversed when the bit
// past the last column is set too: every subset, in file order or not.
func keepOf(names []string, mask uint) []string {
	var keep []string
	for j, name := range names {
		if mask>>uint(j)&1 == 1 {
			keep = append(keep, name)
		}
	}
	if mask>>uint(len(names))&1 == 1 {
		slices.Reverse(keep)
	}
	return keep
}

// columnsOf returns the column names a full read of text settles on (a
// headerless file names them from its first record).
func columnsOf(text string, opts core.CSVOptions) []string {
	cur, err := core.NewCSVCursor(strings.NewReader(text), opts)
	if err != nil {
		return nil
	}
	cur.NextBand(1)
	return cur.Columns()
}

// A cursor that keeps some columns returns, band for band, the projection
// of what the full cursor returns — over the same inputs and band sizes as
// the test above, for every subset of the columns in both orders. That
// includes the two malformed inputs: the ragged row is short of a column
// and the bare quote sits in one, and with that column dropped both still
// fail with the same row and message.
func TestCursorKeepMatchesProject(t *testing.T) {
	for _, tc := range csvCases {
		names := columnsOf(tc.text, tc.opts)
		for _, k := range []int{1, 7, math.MaxInt} {
			for mask := uint(1); mask < 1<<uint(len(names)+1); mask++ {
				keep := keepOf(names, mask)
				if len(keep) == 0 {
					continue
				}
				if err := checkKeep(tc.text, tc.opts, k, keep); err != nil {
					t.Errorf("%s k=%d keep=%v: %v", tc.name, k, keep, err)
				}
			}
		}
	}

	// A duplicated label resolves to its first occurrence, like Project.
	if err := checkKeep("a,b,a\n1,2,3\n4,5,6\n", withHeader, 1, []string{"b", "a"}); err != nil {
		t.Errorf("duplicate label: %v", err)
	}

	// A label the file lacks fails the read, naming it.
	cur, err := core.NewCSVCursor(strings.NewReader("a,b\n1,2\n"), withHeader)
	if err != nil {
		t.Fatal(err)
	}
	cur.Keep([]string{"a", "ghost"})
	if _, err := cur.NextBand(1); !errors.Is(err, dferrors.ErrUnknownColumn) || !strings.Contains(err.Error(), `"ghost"`) {
		t.Errorf("keep of a missing column: error = %v", err)
	}
}

// FuzzCursorKeep holds the same property over arbitrary text, band sizes
// and column subsets.
func FuzzCursorKeep(f *testing.F) {
	for _, tc := range csvCases {
		for _, mask := range []uint{1, 2, 3, 6, 7} {
			f.Add(tc.text, tc.opts.Header, 1, mask)
			f.Add(tc.text, tc.opts.Header, 7, mask)
		}
	}
	f.Fuzz(func(t *testing.T, text string, header bool, k int, mask uint) {
		if k <= 0 {
			k = math.MaxInt
		}
		opts := core.CSVOptions{Comma: ',', Header: header}
		names := columnsOf(text, opts)
		if len(names) > 16 {
			names = names[:16]
		}
		keep := keepOf(names, mask)
		if len(keep) == 0 {
			return
		}
		if err := checkKeep(text, opts, k, keep); err != nil {
			t.Errorf("header=%v k=%d keep=%q: %v", header, k, keep, err)
		}
	})
}
