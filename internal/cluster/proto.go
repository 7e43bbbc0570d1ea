package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/modin"
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
// operands, key exemplars, sort samples and bounds) are types.Values, which
// marshal themselves.

// Request kinds.
const (
	mPing byte = iota
	mPrepare
	mRunBands
	mPartition
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

// PrepareReq installs a query's plan on a worker.
type PrepareReq struct {
	QID  string
	Plan PlanSpec
}

// BandTask names one band a worker must produce: a byte range of the
// plan's scan source, or an inline block for frame sources.
type BandTask struct {
	Band  int
	Range BandRange
	Block []byte
}

// RunBandsReq runs the plan's pre-shuffle stage for the listed bands.
type RunBandsReq struct {
	QID   string
	Bands []BandTask
}

// BandResult is one band's stage output: the chained block itself for
// plans without a shuffle, or the band's shuffle summary. Group bands route
// themselves the moment they run (bucket = key hash % plan.Buckets, a pure
// function of the key), so their result also reports the per-bucket routed
// piece sizes the coordinator needs for merge placement — there is no
// separate partition RPC on the group path.
type BandResult struct {
	Band  int
	Rows  int
	Block []byte
	Group *modin.GroupBandStat
	Sort  [][]types.Value
	Sizes []int64
}

// RunBandsResp returns the bands' results.
type RunBandsResp struct {
	Results []BandResult
}

// PartitionReq routes the listed (already-run) sort bands into buckets by
// the folded range bounds. Group bands never see this request — they route
// incrementally at band time by stable key hash.
type PartitionReq struct {
	QID     string
	Bands   []int
	Buckets int
	Bounds  [][]types.Value
}

// PartitionResp reports per-band, per-bucket routed piece sizes in bytes —
// the signal the coordinator uses for locality-aware merge placement.
type PartitionResp struct {
	Sizes map[int]map[int]int64
}

// PieceRef locates one routed piece: band it came from and the address of
// the worker holding it ("" = the merge worker itself).
type PieceRef struct {
	Band int
	Addr string
}

// MergeReq merges one bucket's routed pieces (in band order); sort merges
// also apply the plan's post-shuffle chain (group merges leave it to the
// coordinator, which applies it after the global order restore). Ranks
// carries the group routing fold's ascending global first-appearance ranks
// for this bucket — count validation on the worker, order repair at the
// coordinator — and Heavy requests the parallel heavy-bucket merge.
type MergeReq struct {
	QID    string
	Bucket int
	Pieces []PieceRef
	Ranks  []int64
	Heavy  bool
}

// MergeResp returns the merged bucket block.
type MergeResp struct {
	Block []byte
	Rows  int
}

// FetchReq asks a worker for one routed piece (peer-to-peer, during a
// remote merge).
type FetchReq struct {
	QID    string
	Band   int
	Bucket int
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
