package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/types"
)

// Control protocol: length-prefixed frames over TCP. Each message is
//
//	u32 payload length · u8 kind · gob payload
//
// and every connection carries strictly serial request/response pairs (the
// coordinator parallelizes across workers, not across messages on one
// conn; peer fetches open their own connections). Blocks travel inside the
// gob payloads as []byte fields already rendered through the columnar
// codec (wire.go), so gob never sees a cell; the scalars it does see (plan
// operands, sort samples and bounds) are types.Values, which marshal
// themselves.
//
// One distributed attempt is two rounds under one query id:
//
//	RunBands (one per band owner; carries the plan, so the first request
//	          for a query id installs the worker's state, which lives as
//	          long as the connection that sent it)
//	Merge (bucket b on owner b mod owners; sort merges carry the range
//	          bounds, peers serve pieces through Fetch) · Release (every worker)
//
// A worker that fails mid-attempt loses the whole attempt: the coordinator
// re-runs it under a fresh query id on the survivors.

// Request kinds.
const (
	mPing byte = iota
	mRunBands
	mMerge
	mFetch
	mRelease
)

// Response status bytes.
const (
	stOK byte = iota
	stErr
	stFetchErr // a merge could not fetch a peer's piece; payload names the peer
)

// BandTask names one band a worker must produce: a byte range of the
// plan's scan source, or an inline block for frame sources.
type BandTask struct {
	Band  int
	Range core.BandRange
	Block []byte
}

// RunBandsReq runs the plan's pre-shuffle stage for the listed bands. It
// carries the plan: a worker installs the query on the first request for
// its id and refuses a malformed plan in-band, keeping no state.
type RunBandsReq struct {
	QID   string
	Plan  PlanSpec
	Bands []BandTask
}

// BandResult is one band's stage output: the chained block itself for
// plans without a shuffle, or the band's sort sample. Group bands route
// themselves the moment they run (bucket = key hash % plan.Buckets, a pure
// function of the key) and report nothing.
type BandResult struct {
	Block []byte
	Sort  [][]types.Value
}

// RunBandsResp returns the bands' results, in request order.
type RunBandsResp struct {
	Results []BandResult
}

// PieceRef locates one routed piece: band it came from and the address of
// the worker holding it ("" = the merge worker itself).
type PieceRef struct {
	Band int
	Addr string
}

// MergeReq merges one bucket's routed pieces (in band order); sort merges
// also apply the plan's post-shuffle chain (group merges tag each group
// with its first position and leave the chain to the coordinator, which
// applies it after the global order restore). Bounds are a sort's folded
// range bounds, by which the worker cuts its held sort bands the first time
// a piece is needed; Timeout is the coordinator's deadline for this merge,
// which bounds the merge's peer fetches.
type MergeReq struct {
	QID     string
	Bucket  int
	Pieces  []PieceRef
	Bounds  [][]types.Value
	Timeout time.Duration
}

// MergeResp returns the merged bucket block.
type MergeResp struct {
	Block []byte
}

// FetchReq asks a worker for one routed piece (peer-to-peer, during a
// remote merge); Bounds cut the holder's sort bands if no merge has yet.
type FetchReq struct {
	QID    string
	Band   int
	Bucket int
	Bounds [][]types.Value
}

// FetchResp returns the piece block.
type FetchResp struct {
	Block []byte
}

// ReleaseReq drops a query's worker-side state.
type ReleaseReq struct {
	QID string
}

// emptyResp is the payload of bodyless acks.
type emptyResp struct{ OK bool }

// fetchErrPayload names the peer whose piece could not be fetched, so the
// coordinator can probe exactly that worker instead of guessing.
type fetchErrPayload struct {
	Addr string
	Msg  string
}

// encodePayload gob-encodes a message payload.
func encodePayload(payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("cluster: encode message: %w", err)
	}
	return buf.Bytes(), nil
}

// writeFrame frames and writes one already-encoded message.
func writeFrame(w io.Writer, kind byte, body []byte) error {
	head := make([]byte, 5)
	binary.LittleEndian.PutUint32(head, uint32(len(body)))
	head[4] = kind
	if _, err := w.Write(head); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// writeMsg encodes, frames and writes one message.
func writeMsg(w io.Writer, kind byte, payload any) error {
	body, err := encodePayload(payload)
	if err != nil {
		return err
	}
	return writeFrame(w, kind, body)
}

// respond answers one request. Application failures — the handler's error,
// or a result gob cannot encode (a Composite value among its scalars) — are
// reported in-band, so the coordinator re-runs the query locally instead of
// losing the connection; only transport failures return an error.
func respond(w io.Writer, resp any, err error) error {
	var body []byte
	if err == nil {
		body, err = encodePayload(resp)
	}
	if err == nil {
		return writeFrame(w, stOK, body)
	}
	if fe, ok := err.(*fetchError); ok {
		return writeMsg(w, stFetchErr, fetchErrPayload{Addr: fe.addr, Msg: fe.msg})
	}
	return writeMsg(w, stErr, err.Error())
}

// readMsg reads one framed message, returning its kind and payload bytes.
func readMsg(r io.Reader) (byte, []byte, error) {
	head := make([]byte, 5)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head)
	const maxMsg = 1 << 31
	if n > maxMsg {
		return 0, nil, fmt.Errorf("cluster: message of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return head[4], payload, nil
}

// decodePayload gob-decodes a message payload.
func decodePayload(payload []byte, into any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(into)
}

// fetchError marks a merge failure caused by an unreachable piece holder;
// the coordinator treats it as that worker's infrastructure failure, not
// the query's.
type fetchError struct {
	addr string
	msg  string
}

func (e *fetchError) Error() string {
	return fmt.Sprintf("cluster: fetch from %s: %s", e.addr, e.msg)
}

// call performs one serial request/response exchange on conn with an
// absolute deadline, decoding the response into resp (which may be nil for
// ack-only calls). Application errors come back as remoteError; transport
// problems as raw errors the caller maps to worker failures.
func call(conn net.Conn, timeout time.Duration, kind byte, req any, resp any) error {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	if err := writeMsg(conn, kind, req); err != nil {
		return err
	}
	status, payload, err := readMsg(conn)
	if err != nil {
		return err
	}
	switch status {
	case stOK:
		if resp == nil {
			return nil
		}
		return decodePayload(payload, resp)
	case stFetchErr:
		var fe fetchErrPayload
		if err := decodePayload(payload, &fe); err != nil {
			return err
		}
		return &fetchError{addr: fe.Addr, msg: fe.Msg}
	default:
		var msg string
		if err := decodePayload(payload, &msg); err != nil {
			return err
		}
		return &remoteError{msg: msg}
	}
}

// remoteError is an application-level failure reported by a worker (the
// query itself failed there, the worker is healthy).
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return e.msg }
