package core_test

import (
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
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

// ReadCSV is the cursor's one-band case, so the whole-file read and every
// banding of the same input must agree on cells, labels, shape and errors.
func TestReadCSVMatchesBandedCursor(t *testing.T) {
	header, headerless := core.DefaultCSVOptions(), core.CSVOptions{Comma: ','}
	cases := []struct {
		name       string
		text       string
		opts       core.CSVOptions
		rows, cols int
		err        string
	}{
		{name: "quoted newline", text: "a,b\n1,\"x\ny\"\n2,z\n3,\"p,q\"\n", opts: header, rows: 3, cols: 2},
		{name: "escaped quote", text: "a,b\n\"he said \"\"hi\"\"\",2\n\"\",4\n", opts: header, rows: 2, cols: 2},
		{name: "crlf", text: "a,b\r\n1,2\r\n3,4\r\n", opts: header, rows: 2, cols: 2},
		{name: "blank lines", text: "a,b\n1,2\n\n\n3,4\n5,6", opts: header, rows: 3, cols: 2},
		{name: "headerless", text: "1,2,3\n4,5,6\n7,8,9\n", opts: headerless, rows: 3, cols: 3},
		{name: "header only", text: "a,b,c\n", opts: header, rows: 0, cols: 3},
		{name: "empty", text: "", opts: header, rows: 0, cols: 0},
		{name: "empty headerless", text: "", opts: headerless, rows: 0, cols: 0},
		{name: "induce now", text: "a,b\n1,x\n2,y\n", opts: core.CSVOptions{Comma: ',', Header: true, InduceNow: true}, rows: 2, cols: 2},
		{name: "ragged", text: "a,b\n1,2\n3\n4,5\n", opts: header, err: "core: csv row 1 has 1 fields, want 2"},
		{name: "bare quote", text: "a,b\n1,x\"y\n", opts: header, err: "core: read csv: "},
	}
	for _, tc := range cases {
		whole, wholeErr := core.ReadCSVString(tc.text, tc.opts)
		if tc.err != "" {
			if wholeErr == nil || !strings.HasPrefix(wholeErr.Error(), tc.err) {
				t.Errorf("%s: ReadCSV error = %v, want prefix %q", tc.name, wholeErr, tc.err)
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
