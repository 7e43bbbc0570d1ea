package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/schema"
	"repro/internal/types"
	"repro/internal/vector"
)

// Block format: a dataframe serialized column-by-column through the vector
// layer's raw little-endian codec (vector.AppendWire) — typed storage as it
// sits in memory, no cell rendered or boxed. It is the one serialized form
// of a frame: the cluster ships blocks between processes and the storage
// layer spills them to disk. Layout:
//
//	u32 ncols
//	u8  declared domains ×ncols   (types.Domain as stored; Unspecified ok)
//	row-label vector              (vector wire form)
//	column labels ×ncols          (types.Value binary form)
//	column vectors ×ncols         (vector wire form)
//
// Composite values have no binary form, so a frame holding them does not
// encode: plans producing them stay on the in-process backend, and the
// store keeps such a frame resident.

// EncodeFrame serializes df onto buf and returns the extended buffer.
func EncodeFrame(buf []byte, df *DataFrame) ([]byte, error) {
	n := df.NCols()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for j := 0; j < n; j++ {
		buf = append(buf, byte(df.DeclaredDomain(j)))
	}
	var err error
	buf, err = vector.AppendWire(buf, df.RowLabels())
	if err != nil {
		return nil, fmt.Errorf("core: encode row labels: %w", err)
	}
	for j := 0; j < n; j++ {
		buf, err = df.ColLabels()[j].AppendBinary(buf)
		if err != nil {
			return nil, fmt.Errorf("core: encode column label %d: %w", j, err)
		}
	}
	for j := 0; j < n; j++ {
		buf, err = vector.AppendWire(buf, df.Col(j))
		if err != nil {
			return nil, fmt.Errorf("core: encode column %d: %w", j, err)
		}
	}
	return buf, nil
}

// DecodeFrame decodes one dataframe off buf, returning it and the
// remaining bytes. The frame gets a fresh schema-induction cache, so lazy
// typing memoizes per decoded band exactly as it does per parsed band.
func DecodeFrame(buf []byte) (*DataFrame, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, fmt.Errorf("core: frame truncated (header)")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if len(buf) < n {
		return nil, nil, fmt.Errorf("core: frame truncated (domains)")
	}
	domains := make([]types.Domain, n)
	for j := 0; j < n; j++ {
		domains[j] = types.Domain(buf[j])
	}
	buf = buf[n:]
	rowLab, buf, err := vector.DecodeWire(buf)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decode row labels: %w", err)
	}
	colLab := make([]types.Value, n)
	for j := 0; j < n; j++ {
		colLab[j], buf, err = types.DecodeValue(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("core: decode column label %d: %w", j, err)
		}
	}
	cols := make([]vector.Vector, n)
	for j := 0; j < n; j++ {
		cols[j], buf, err = vector.DecodeWire(buf)
		if err != nil {
			return nil, nil, fmt.Errorf("core: decode column %d: %w", j, err)
		}
	}
	df, err := Build(cols, rowLab, colLab, domains, schema.NewCache())
	if err != nil {
		return nil, nil, fmt.Errorf("core: rebuild frame: %w", err)
	}
	return df, buf, nil
}
