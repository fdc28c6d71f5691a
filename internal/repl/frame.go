package repl

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/flight"
)

// Frame types. The full wire protocol is documented in
// docs/REPLICATION.md; briefly, a stream is a sequence of frames
//
//	uint32 length | uint32 crc32(payload) | payload
//
// (both header fields little-endian) where payload is one type byte
// followed by a JSON body. The framing deliberately mirrors the WAL's
// record discipline: a torn or corrupted frame is detected by the
// checksum and terminates the stream, and the follower simply
// reconnects and resumes from its last applied sequence.
const (
	// FrameSnapshot carries one chunk of a snapshot bootstrap
	// (SnapshotChunk). The chunk with Done=true completes the
	// snapshot; the follower then atomically replaces its state.
	FrameSnapshot byte = 'S'
	// FrameTxn carries one committed transaction delta (TxnFrame),
	// in sequence order.
	FrameTxn byte = 'T'
	// FrameHeartbeat carries the leader's current committed sequence
	// (Heartbeat). Sent immediately on connect and periodically while
	// idle, so followers can compute lag and detect dead peers.
	FrameHeartbeat byte = 'H'
)

const (
	// frameHeader is payload length + CRC32, both little-endian.
	frameHeader = 8
	// maxFrame bounds a single frame (snapshot chunks are split well
	// below this; the guard is against garbage lengths from a
	// corrupted stream).
	maxFrame = 8 << 20
)

// SnapshotChunk is the JSON body of a FrameSnapshot frame. A snapshot
// at sequence Seq is shipped as one or more chunks with ascending fact
// ranges; the last has Done=true. Epoch is the leadership epoch of
// the state at Seq (0 from pre-epoch leaders).
type SnapshotChunk struct {
	Seq   int      `json:"seq"`
	Epoch int64    `json:"epoch,omitempty"`
	Facts []string `json:"facts"`
	Done  bool     `json:"done"`
}

// TxnFrame is the JSON body of a FrameTxn frame: one committed
// transaction's fact-level delta, rendered in rule-language syntax
// exactly as the WAL stores it. TraceID carries the correlation ID of
// the originating request so a follower's applied-transaction log
// lines up with the leader's access log; Trace, when present, is the
// leader's flight record of the evaluation (the follower serves it
// from its own /v1/txns API). Both fields are optional — old leaders
// simply omit them, old followers ignore them.
type TxnFrame struct {
	Seq int `json:"seq"`
	// Epoch is the leadership epoch the transaction committed under;
	// the follower's store fences the frame out if it has already seen
	// a newer epoch (a deposed leader cannot replicate). 0 from
	// pre-epoch leaders.
	Epoch   int64         `json:"epoch,omitempty"`
	TraceID string        `json:"traceId,omitempty"`
	Added   []string      `json:"added,omitempty"`
	Removed []string      `json:"removed,omitempty"`
	Trace   *flight.Trace `json:"trace,omitempty"`
}

// Heartbeat is the JSON body of a FrameHeartbeat frame. Beyond the
// leader's committed sequence it carries the lease/epoch state the
// failover protocol rides on: every heartbeat renews the leader's
// lease for LeaseMillis, and identifies the leader so followers (and
// their election coordinators) know who they are following. The
// lease/identity fields are absent from pre-epoch leaders and from
// leaders running without a cluster configuration.
type Heartbeat struct {
	Seq int `json:"seq"`
	// Epoch is the leader's current leadership epoch.
	Epoch int64 `json:"epoch,omitempty"`
	// LeaderID and LeaderURL identify the leader as the sending member
	// knows it: itself while it leads, the leader it follows when it
	// relays.
	LeaderID  string `json:"leaderId,omitempty"`
	LeaderURL string `json:"leaderUrl,omitempty"`
	// LeaseMillis is the lease duration this heartbeat renews: a
	// follower that hears nothing for LeaseMillis may consider the
	// leader dead and start an election.
	LeaseMillis int64 `json:"leaseMillis,omitempty"`
}

// writeFrame encodes and writes one frame, returning the bytes
// written.
func writeFrame(w io.Writer, typ byte, payload any) (int, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	buf := make([]byte, frameHeader+1+len(body))
	binary.LittleEndian.PutUint32(buf, uint32(1+len(body)))
	buf[frameHeader] = typ
	copy(buf[frameHeader+1:], body)
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(buf[frameHeader:]))
	return w.Write(buf)
}

// readFrame reads one frame, returning its type byte and JSON body. A
// clean end of stream is io.EOF; a header or checksum violation is an
// error (the stream is unusable past it — resume from sequence).
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length == 0 || length > maxFrame {
		return 0, nil, fmt.Errorf("repl: bad frame length %d", length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	return payload[0], payload[1:], nil
}
