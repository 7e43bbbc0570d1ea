// Package cluster is the distributed execution backend (the paper's
// Section 3.3 claim taken out of one process): dfworker processes execute
// fused stages and shuffle phases shipped over a length-prefixed columnar
// wire format serialized straight from internal/vector typed storage, while
// a coordinator-side Scheduler implements the df-facing engine surface. Each
// query runs as self-contained attempts: an attempt deals the query's bands
// round-robin to the live workers, merges bucket b on band owner b mod
// owners, and runs straight through in two rounds (bands, then merges); a
// worker lost mid-way fails the attempt, and the next one re-runs the whole
// band lineage on the survivors. A scan band's lineage is a
// core.BandRange: the coordinator cuts the input with the same boundary
// pass a local stream runs (core.CSVInput.FindBands), and a worker parses
// its range with the same ranged reader (core.CSVInput.ReadBand), so a band
// holds the same rows, labels and error text wherever it runs. The
// in-process MODIN engine remains the degenerate backend (Local) and the
// fallback for plans whose operators cannot cross a process boundary
// (opaque Go closures).
//
// The package speaks two wire forms and owns one: dataframes travel in the
// block format internal/core defines (the spill format too); control
// messages are the package's own gob forms (proto.go), whose plan is
// algebra.EncodePlan bytes — the same encoding optimizer.Fingerprint keys
// the plan cache on — riding each band owner's RunBands request and run
// through the compiler's own band kernels, with scalars in the one binary
// form internal/types defines (types.Value is a gob BinaryMarshaler).
package cluster

import (
	"fmt"

	"repro/internal/core"
)

// EncodeFrame serializes df onto buf in the block format (core.EncodeFrame)
// and returns the extended buffer.
func EncodeFrame(buf []byte, df *core.DataFrame) ([]byte, error) {
	return core.EncodeFrame(buf, df)
}

// DecodeFrame decodes one block off buf, returning the frame and the
// remaining bytes.
func DecodeFrame(buf []byte) (*core.DataFrame, []byte, error) {
	return core.DecodeFrame(buf)
}

// decodeBlock decodes a message field holding exactly one block; what names
// the block in the error.
func decodeBlock(block []byte, what string) (*core.DataFrame, error) {
	df, rest, err := DecodeFrame(block)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after %s block", len(rest), what)
	}
	return df, nil
}
