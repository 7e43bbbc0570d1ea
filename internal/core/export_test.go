package core

import "bytes"

// FindBandsChunked is FindBands' file pass over data read chunk bytes at a
// time, so a test can put a chunk edge anywhere in a record.
func FindBandsChunked(data []byte, header bool, bandRows, chunk int) ([]BandRange, error) {
	f := &bandFinder{header: header, bandRows: bandRows, recOff: -1}
	return f.read(bytes.NewReader(data), make([]byte, chunk))
}
