package core_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/vector"
	"repro/internal/workload"
)

// oracleRead is what ReadCSV must return, computed with encoding/csv: a
// csv.Reader with FieldsPerRecord = -1 reads the records, the header (when
// opts.Header) names the columns or the first record's width names them
// positionally, and every record must be as wide as the names.
func oracleRead(text []byte, opts core.CSVOptions) (*core.DataFrame, error) {
	r := csv.NewReader(bytes.NewReader(text))
	if opts.Comma != 0 {
		r.Comma = opts.Comma
	}
	r.FieldsPerRecord = -1
	var names []string
	if opts.Header {
		rec, err := r.Read()
		if err == io.EOF {
			return core.Empty(), nil
		}
		if err != nil {
			return nil, fmt.Errorf("core: read csv: %w", err)
		}
		names = rec
	}
	var cells [][]string
	for row := 0; ; row++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: read csv: %w", err)
		}
		if names == nil {
			names = make([]string, len(rec))
			for j := range names {
				names[j] = fmt.Sprint(j)
			}
		}
		if len(rec) != len(names) {
			return nil, fmt.Errorf("core: csv row %d has %d fields, want %d", row, len(rec), len(names))
		}
		if cells == nil {
			cells = make([][]string, len(names))
		}
		for j, cell := range rec {
			cells[j] = append(cells[j], cell)
		}
	}
	if names == nil {
		return core.Empty(), nil
	}
	cols := make([]vector.Vector, len(names))
	for j := range cols {
		var col []string
		if cells != nil {
			col = cells[j]
		}
		cols[j] = vector.NewObjectFromStrings(col)
	}
	return core.New(names, cols)
}

// sameResult reports how a read's frame and error differ from the
// oracle's, or "" when they agree.
func sameResult(got *core.DataFrame, gotErr error, want *core.DataFrame, wantErr error) string {
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("error %v, encoding/csv %v", gotErr, wantErr)
		}
		var gotPE, wantPE *csv.ParseError
		if errors.As(gotErr, &gotPE) != errors.As(wantErr, &wantPE) {
			return fmt.Sprintf("error %v is a *csv.ParseError: %v, encoding/csv's: %v", gotErr, gotPE != nil, wantPE != nil)
		}
		return ""
	}
	if !got.Equal(want) {
		return fmt.Sprintf("frame\n%s\nencoding/csv:\n%s", got, want)
	}
	return ""
}

// Every case the banding tests share reads through ReadCSV exactly as
// encoding/csv reads it (InduceNow only types the parsed cells).
func TestReadCSVMatchesEncodingCSV(t *testing.T) {
	for _, tc := range csvCases {
		opts := tc.opts
		opts.InduceNow = false
		got, gotErr := core.ReadCSVString(tc.text, opts)
		want, wantErr := oracleRead([]byte(tc.text), opts)
		if d := sameResult(got, gotErr, want, wantErr); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
	}
}

// scanDelims are the delimiters the oracle fuzz covers: three single bytes
// and one three-byte rune.
var scanDelims = []rune{',', ';', '\t', '│'}

// FuzzScanMatchesEncodingCSV holds the scanner to encoding/csv itself: for
// every record, its fields (all of them, or only a subset), its width and
// the input offset after it, and for malformed input the error's text and
// type, must equal what a csv.Reader with FieldsPerRecord = -1 reads; and
// ReadCSV and the ranged read must equal the frame built from those
// records.
func FuzzScanMatchesEncodingCSV(f *testing.F) {
	seeds := []string{
		"a,\"he said \"\"hi\"\"\",\"\"\n\"\"\"\",b,c\n", // "" escapes
		"a,\"b\nc\",d\n\"x\r\ny\",\"\r\n\",z\r\n",       // quoted newlines, "\r\n" inside quotes
		"a\rb,c\r\nd,\re\n",                             // a lone '\r' is kept
		"a,b\n\n\r\n\nc,d\n\n",                          // blank lines
		"a,b\nc,d\r",                                    // trailing '\r' at EOF
		"a,b\nc,x\"y\n",                                 // bare quote
		"a,b\n\"c\"d,e\n",                               // extraneous quote
		"a,b\n\"c\n\nd,e\n",                             // unterminated quote at EOF
		"a,b,c\nd\ne,f,g,h\n",                           // records of every width
		"\"a\",\"b\"\n\"c\"",                            // closing quote at EOF
		"a,\"b\"\r",                                     // closing quote, then '\r' at EOF
	}
	for _, s := range seeds {
		for d, comma := range scanDelims {
			f.Add(strings.ReplaceAll(s, ",", string(comma)), uint8(d), uint(5))
		}
	}
	f.Fuzz(func(t *testing.T, raw string, d uint8, mask uint) {
		comma := scanDelims[int(d)%len(scanDelims)]
		text := foldCSV(raw, comma)
		r := csv.NewReader(strings.NewReader(text))
		r.Comma = comma
		r.FieldsPerRecord = -1
		var want [][]string
		var offsets []int64
		var wantErr error
		for {
			rec, err := r.Read()
			if err != nil {
				if err != io.EOF {
					wantErr = err
				}
				break
			}
			want, offsets = append(want, rec), append(offsets, r.InputOffset())
		}

		var sel []int
		for j := 0; j < 8; j++ {
			if mask>>uint(j)&1 == 1 {
				sel = append(sel, j)
			}
		}
		for _, sel := range [][]int{nil, sel} {
			recs, widths, offs, err := core.ScanRecords(text, comma, sel)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%q sel=%v: error %v, encoding/csv %v", text, sel, err, wantErr)
			}
			if len(recs) != len(want) || !slices.Equal(offs, offsets) {
				t.Fatalf("%q sel=%v: %d records ending at %v, encoding/csv %d ending at %v", text, sel, len(recs), offs, len(want), offsets)
			}
			for i, rec := range want {
				kept := rec
				if sel != nil {
					kept = nil
					for _, j := range sel {
						if j < len(rec) {
							kept = append(kept, rec[j])
						}
					}
				}
				if widths[i] != len(rec) || !slices.Equal(recs[i], kept) {
					t.Fatalf("%q sel=%v: record %d is %q of %d fields, encoding/csv %q of %d", text, sel, i, recs[i], widths[i], kept, len(rec))
				}
			}
		}

		for _, header := range []bool{true, false} {
			opts := core.CSVOptions{Comma: comma, Header: header}
			want, wantErr := oracleRead([]byte(text), opts)
			got, err := core.ReadCSVString(text, opts)
			if d := sameResult(got, err, want, wantErr); d != "" {
				t.Fatalf("%q header=%v: ReadCSV %s", text, header, d)
			}
			got, err = readRanged("", []byte(text), opts, 2)
			if d := sameResult(got, err, want, wantErr); d != "" {
				t.Fatalf("%q header=%v: ranged read %s", text, header, d)
			}
		}
	})
}

// foldCSV maps raw fuzz bytes onto the bytes CSV structure is built from —
// quotes, the delimiter, line ends, letters, and a fragment of a multi-byte
// rune — so mutations stay structural.
func foldCSV(raw string, comma rune) string {
	fold := []string{`"`, string(comma), "\n", "\r", "x", "\xe2\x94"}
	var b strings.Builder
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '"', c == ',', c == ';', c == '\t', c == '\n', c == '\r', c == ' ', 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			b.WriteByte(c)
		case c >= utf8.RuneSelf && strings.HasPrefix(raw[i:], string(comma)):
			b.WriteRune(comma)
			i += utf8.RuneLen(comma) - 1
		default:
			b.WriteString(fold[int(c)%len(fold)])
		}
	}
	return b.String()
}

// delimCells are cells that need quoting under one delimiter or another.
var delimCells = [][]string{
	{"id", "text", "note"},
	{"1", "a,b", "semi;colon"},
	{"2", "tab\there", "rune│inside"},
	{"3", "he said \"hi\"", ""},
	{"4", "line\nbreak", "NA"},
	{"5", "", "plain"},
}

// renderCSV writes cells as CSV with delimiter comma, quoting as
// encoding/csv's writer does.
func renderCSV(t *testing.T, cells [][]string, comma rune) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	w.Comma = comma
	if err := w.WriteAll(cells); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The same cells read with ';', '\t' or a multi-byte delimiter equal their
// comma-delimited read, through ReadCSV, a banded cursor and ReadBand, with
// every column kept or only some.
func TestDelimitersMatchComma(t *testing.T) {
	want, err := core.ReadCSVString(renderCSV(t, delimCells, ','), withHeader)
	if err != nil {
		t.Fatal(err)
	}
	for _, comma := range []rune{';', '\t', '│'} {
		text := renderCSV(t, delimCells, comma)
		opts := core.CSVOptions{Comma: comma, Header: true}
		reads := map[string]func() (*core.DataFrame, error){
			"ReadCSV":  func() (*core.DataFrame, error) { return core.ReadCSVString(text, opts) },
			"cursor":   func() (*core.DataFrame, error) { return readBanded(text, opts, 2) },
			"ReadBand": func() (*core.DataFrame, error) { return readRanged("", []byte(text), opts, 2) },
		}
		for how, read := range reads {
			got, err := read()
			if err != nil {
				t.Errorf("%q %s: %v", comma, how, err)
			} else if !got.Equal(want) {
				t.Errorf("%q %s:\n%s\nwant the comma read:\n%s", comma, how, got, want)
			}
		}
		if err := checkKeep(text, opts, 2, []string{"note", "id"}); err != nil {
			t.Errorf("%q keep: %v", comma, err)
		}
	}
}

// A delimiter encoding/csv refuses fails every read with its text — the
// text these reads returned while they ran on a csv.Reader.
func TestInvalidDelimitersFail(t *testing.T) {
	const want = "core: read csv: csv: invalid field or comment delimiter"
	text := "a,b\n1,2\n"
	for _, comma := range []rune{'"', '\n', '\r', utf8.RuneError, -1, utf8.MaxRune + 1} {
		for _, header := range []bool{true, false} {
			opts := core.CSVOptions{Comma: comma, Header: header}
			_, wholeErr := core.ReadCSVString(text, opts)
			_, emptyErr := core.ReadCSVString("", opts)
			_, rangedErr := readRanged("", []byte(text), opts, 1)
			in, err := core.OpenCSVInput("", []byte(text))
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := in.FindBands(header, 1)
			if err != nil {
				t.Fatal(err)
			}
			_, bandErr := in.ReadBand(ranges[0], opts, []string{"a", "b"}, nil)
			for how, err := range map[string]error{"ReadCSV": wholeErr, "empty ReadCSV": emptyErr, "ranged": rangedErr, "ReadBand": bandErr} {
				if fmt.Sprint(err) != want {
					t.Errorf("%q header=%v %s: error %v, want %q", comma, header, how, err, want)
				}
			}
		}
	}
}

// BenchmarkReadBand parses the taxi shape — 9 columns, 24,000 rows in
// memory, cut into 2,048-row bands by FindBands — band by band, keeping 3
// of the 9 columns (what a projected scan keeps) or all of them (what a
// wide scan keeps). MB/s is input bytes parsed per second.
func BenchmarkReadBand(b *testing.B) {
	var buf bytes.Buffer
	if err := workload.Taxi(workload.DefaultTaxiOptions(24000)).WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	in, err := core.OpenCSVInput("", data)
	if err != nil {
		b.Fatal(err)
	}
	ranges, err := in.FindBands(true, 2048)
	if err != nil {
		b.Fatal(err)
	}
	cols := workload.TaxiColumns
	for _, bc := range []struct {
		name string
		keep []string
	}{
		{"keep3of9", []string{"vendor_id", "passenger_count", "total_amount"}},
		{"all9", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				for _, rng := range ranges {
					if _, err := in.ReadBand(rng, core.DefaultCSVOptions(), cols, bc.keep); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
