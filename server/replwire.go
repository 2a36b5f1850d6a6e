package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/wire"
	"repro/store"
)

// The replication stream (DESIGN.md §12): a follower sends an
// OpSubscribe request, the primary answers it like any other request
// (statusOK and its head sequence number), and from then on the
// connection carries WAL frames instead of request/response pairs — the
// same length-prefixed outer framing, but each payload is a WALFrame.
// The primary pushes record and heartbeat frames; the follower pushes
// ack frames carrying its applied watermark back on the same connection.
//
// Record frames embed a CRC-32 over their body: TCP's checksum is weak
// at this scale and a follower applying a corrupt record would diverge
// silently — better to drop the connection and re-subscribe. Control
// frames are small enough that the opcode-and-shape validation suffices.

// WAL frame kinds. Kinds 2–4 are unassigned (they were the snapshot
// bootstrap of protocol version 3) and rejected as unknown.
const (
	// FrameRecords carries appended values: Seq is the first record's
	// global sequence number, Values the records in sequence order.
	FrameRecords byte = 1
	// FrameHeartbeat is the primary's liveness tick: Seq is its head, so
	// an idle follower still measures lag.
	FrameHeartbeat byte = 5
	// FrameAck is the follower's progress report: Seq is its applied
	// watermark (every record below it is durable on the follower).
	FrameAck byte = 6
)

// WALFrame is one decoded replication stream message. Which fields are
// meaningful depends on Kind — see the kind constants. Rows rides
// FrameRecords on stores with a pinned column schema: nil, or exactly
// one payload row (possibly nil = all-NULL) per value.
type WALFrame struct {
	Kind   byte
	Seq    uint64
	Values []string
	Rows   []store.Row
}

// EncodeWALFrame serializes a replication frame payload (without the
// outer length prefix). Inverse of ParseWALFrame for every valid frame.
func EncodeWALFrame(f WALFrame) []byte {
	w := wire.NewRawWriter()
	switch f.Kind {
	case FrameRecords:
		w.Uvarint(f.Seq)
		w.Uvarint(uint64(len(f.Values)))
		for _, v := range f.Values {
			w.Str(v)
		}
		encodeRows(w, f.Rows)
	case FrameHeartbeat, FrameAck:
		w.Uvarint(f.Seq)
	default:
		panic(fmt.Sprintf("server: encoding unknown frame kind %d", f.Kind))
	}
	body := w.Bytes()
	out := make([]byte, 0, 5+len(body))
	out = append(out, f.Kind)
	if f.Kind == FrameRecords {
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	return append(out, body...)
}

// ParseWALFrame decodes a replication frame payload. Arbitrary input —
// torn frames, flipped bits, hostile peers — must error, never panic:
// this is the follower's trust boundary and it is fuzzed. A checksum
// mismatch is an error like any other; the caller drops the connection.
func ParseWALFrame(payload []byte) (WALFrame, error) {
	var f WALFrame
	if len(payload) == 0 {
		return f, fmt.Errorf("server: empty replication frame")
	}
	f.Kind = payload[0]
	if f.Kind != FrameRecords && f.Kind != FrameHeartbeat && f.Kind != FrameAck {
		return f, fmt.Errorf("server: unknown replication frame kind %d", f.Kind)
	}
	body := payload[1:]
	if f.Kind == FrameRecords {
		if len(body) < 4 {
			return f, fmt.Errorf("server: replication frame truncated before checksum")
		}
		sum := binary.LittleEndian.Uint32(body)
		body = body[4:]
		if got := crc32.ChecksumIEEE(body); got != sum {
			return f, fmt.Errorf("server: replication frame checksum mismatch (%08x != %08x)", got, sum)
		}
	}
	r := wire.NewRawReader(body)
	switch f.Kind {
	case FrameRecords:
		f.Seq = r.Uvarint()
		n := r.Len() // validated against the remaining payload
		f.Values = make([]string, 0, n)
		for i := 0; i < n && r.Err() == nil; i++ {
			f.Values = append(f.Values, r.Str())
		}
		f.Rows = parseRows(r, n)
	case FrameHeartbeat, FrameAck:
		f.Seq = r.Uvarint()
	}
	if err := r.Err(); err != nil {
		return f, err
	}
	if err := r.Done(); err != nil {
		return f, err
	}
	return f, nil
}
