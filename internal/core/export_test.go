package core

import (
	"bytes"
	"io"
	"strings"
)

// FindBandsChunked is FindBands' file pass over data read chunk bytes at a
// time, so a test can put a chunk edge anywhere in a record.
func FindBandsChunked(data []byte, header bool, bandRows, chunk int) ([]BandRange, error) {
	f := &bandFinder{header: header, bandRows: bandRows, recOff: -1}
	return f.read(bytes.NewReader(data), make([]byte, chunk))
}

// ScanRecords runs the CSV scanner over text with delimiter comma and
// returns, up to the first error, each record's materialized fields (those
// sel lists, or all of them when sel is nil), its width, and the input
// offset after it.
func ScanRecords(text string, comma rune, sel []int) (recs [][]string, widths []int, offsets []int64, err error) {
	s := newCSVScanner(strings.NewReader(text), comma, 0)
	for {
		n, err := s.readRecord(sel)
		if err == io.EOF {
			return recs, widths, offsets, nil
		}
		if err != nil {
			return recs, widths, offsets, err
		}
		rec := make([]string, len(s.ends))
		start := 0
		for i, end := range s.ends {
			rec[i], start = string(s.fields[start:end]), end
		}
		recs, widths, offsets = append(recs, rec), append(widths, n), append(offsets, s.offset)
	}
}
