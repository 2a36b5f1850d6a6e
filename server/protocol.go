package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
	"repro/store"
)

// The wire protocol is length-prefixed binary frames over a byte
// stream: each message is a u32 little-endian payload length followed
// by the payload. A request payload is an opcode byte and the op's
// arguments; a response payload is a status byte (statusOK/statusErr)
// and the op's results (or the error text). Integers are uvarints,
// strings are uvarint-length-prefixed bytes — the internal/wire raw
// codec. The frame, not the payload, carries versioning: the first
// frame a client sends is a Ping carrying the protocol version, and a
// server that cannot serve it answers with an error.
//
// See DESIGN.md §8 for the full message catalogue.
const (
	// ProtocolVersion is negotiated by the Ping op. Version 2 added the
	// replication ops (OpSubscribe, OpReplWait, OpPromote), the ack
	// sequence number on append responses and the Stats replication
	// fields. Version 3 added columnar payloads: rows on the append ops
	// and the replication record frames, OpRow and OpScanWhere, and the
	// schema in Stats. Version 4 made OpIterate stateless (it carries the
	// echoed end position where a cursor id was; the cursor-close op is
	// gone and the later opcodes renumbered) and dropped the snapshot-image
	// bootstrap from the replication handshake and frame set. Version 5
	// added OpCountWhere.
	ProtocolVersion = 5

	// maxRowCells caps the cells one wire row may carry — mirrors the
	// store's column limit, enforced here so a hostile frame cannot make
	// the decoder allocate unboundedly.
	maxRowCells = 64

	// MaxFrame caps a single frame's payload. Anything larger is a
	// corrupt or hostile stream; the connection is closed.
	MaxFrame = 16 << 20

	frameHeaderLen = 4
)

// Opcodes. The zero value is invalid so an empty payload can never
// decode as a request.
const (
	OpPing byte = iota + 1
	OpAppend
	OpAppendBatch
	OpAccess
	OpRank
	OpCount
	OpSelect
	OpRankPrefix
	OpCountPrefix
	OpSelectPrefix
	OpIterate
	OpFlush
	OpCompact
	OpStats
	OpMetrics
	OpIteratePrefix
	// Replication (protocol version 2; see DESIGN.md §12): OpSubscribe
	// switches the connection into a WAL-frame stream, OpReplWait blocks
	// until the serving watermark covers a sequence number (read-your-
	// writes), OpPromote turns a follower writable.
	OpSubscribe
	OpReplWait
	OpPromote
	// Columns (protocol version 3; see DESIGN.md §13): OpRow reads the
	// payload row at a position, OpScanWhere streams positions matching a
	// value prefix intersected with numeric column predicates, and
	// OpCountWhere (version 5) counts them.
	OpRow
	OpScanWhere
	OpCountWhere

	opLimit // one past the last valid opcode
)

// Response status bytes.
const (
	statusOK  byte = 0
	statusErr byte = 1
)

// arg is one request argument: a Request field with one fixed encoding.
type arg byte

const (
	argPos    arg = iota // Pos: uvarint, at most MaxInt64/2
	argValue             // Value: string
	argValues            // Values: uvarint count, then the strings
	argRows              // Rows: encodeRows, none or one row per value (one when the op has no Values)
	argSeq               // Seq: uvarint
	argMax               // Max: uvarint, at most MaxInt64/2
	argPreds             // Preds: encodePreds
)

// opSpec declares one opcode: its name (the wt_server_op_seconds label
// and the slow-op log's) and its request arguments in wire order.
type opSpec struct {
	name string
	args []arg
}

// ops is the one declaration of every opcode's name and request layout:
// encodeRequest, ParseRequest, opName and keyShape read it. Slot 0 names
// the unparseable-request series. The handlers live in respond.
var ops = [opLimit]opSpec{
	0:               {"invalid", nil},
	OpPing:          {"ping", []arg{argPos}}, // Pos = protocol version
	OpAppend:        {"append", []arg{argValue, argRows}},
	OpAppendBatch:   {"append_batch", []arg{argValues, argRows}},
	OpAccess:        {"access", []arg{argPos}},
	OpRank:          {"rank", []arg{argValue, argPos}},
	OpCount:         {"count", []arg{argValue}},
	OpSelect:        {"select", []arg{argValue, argPos}}, // Pos = occurrence index
	OpRankPrefix:    {"rank_prefix", []arg{argValue, argPos}},
	OpCountPrefix:   {"count_prefix", []arg{argValue}},
	OpSelectPrefix:  {"select_prefix", []arg{argValue, argPos}},
	OpIterate:       {"iterate", []arg{argSeq, argPos, argMax}}, // Seq = end (0 = pin Len now), Pos = start
	OpFlush:         {"flush", nil},
	OpCompact:       {"compact", nil},
	OpStats:         {"stats", nil},
	OpMetrics:       {"metrics", nil},
	OpIteratePrefix: {"iterate_prefix", []arg{argValue, argPos, argMax}}, // Pos = match offset
	OpSubscribe:     {"subscribe", []arg{argValue, argSeq}},              // Value = follower id, Seq = from seq
	OpReplWait:      {"repl_wait", []arg{argSeq, argMax}},                // Seq = seq to cover, Max = timeout ms
	OpPromote:       {"promote", nil},
	OpRow:           {"row", []arg{argPos}},
	OpScanWhere:     {"scan_where", []arg{argValue, argPos, argMax, argPreds}},
	OpCountWhere:    {"count_where", []arg{argValue, argPreds}},
}

// Request is one decoded client request. Which fields are meaningful
// depends on Op: ops declares each op's arguments in wire order.
type Request struct {
	Op     byte
	Value  string
	Values []string
	Pos    int
	Max    int
	// Seq is a position in the append-only sequence — equivalently a
	// global sequence number, the only resume token the protocol has.
	Seq uint64
	// Rows carries payload rows on the append ops: nil for no payloads,
	// otherwise one row per value (individual rows may still be nil).
	Rows []store.Row
	// Preds carries the column predicates of OpScanWhere and OpCountWhere.
	Preds []store.Pred
}

// encodeCell writes one row cell: a kind tag, then the kind's payload.
func encodeCell(w *wire.Writer, v store.Value) {
	w.Byte(byte(v.Kind()))
	switch v.Kind() {
	case store.ColUint64:
		w.Uvarint(v.U64())
	case store.ColBytes:
		w.Blob(v.Blob())
	}
}

// parseCell reads one row cell. Arbitrary input must error, never
// panic — reached from the request and replication-frame fuzzers.
func parseCell(r *wire.Reader) store.Value {
	switch k := r.Byte(); store.ColumnKind(k) {
	case store.ColumnKind(0):
		return store.Null()
	case store.ColUint64:
		return store.U64(r.Uvarint())
	case store.ColBytes:
		return store.Blob(r.Blob())
	default:
		r.Fail("unknown cell kind %d", k)
		return store.Null()
	}
}

// encodeRow writes one payload row: a cell count (0 = nil row) and the
// cells. A nil row and a zero-column row are the same wire shape; both
// read back as nil (all-NULL).
func encodeRow(w *wire.Writer, row store.Row) {
	w.Uvarint(uint64(len(row)))
	for _, v := range row {
		encodeCell(w, v)
	}
}

// parseRow reads one payload row; 0 cells decodes as nil.
func parseRow(r *wire.Reader) store.Row {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n > maxRowCells {
		r.Fail("row of %d cells (limit %d)", n, maxRowCells)
		return nil
	}
	row := make(store.Row, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		row = append(row, parseCell(r))
	}
	return row
}

// encodeRows writes an append op's row list: 0 for none, else one row
// per value.
func encodeRows(w *wire.Writer, rows []store.Row) {
	w.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		encodeRow(w, row)
	}
}

// parseRows reads an append op's row list, which must be empty or hold
// exactly want rows.
func parseRows(r *wire.Reader, want int) []store.Row {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n != uint64(want) {
		r.Fail("append carries %d rows for %d values", n, want)
		return nil
	}
	rows := make([]store.Row, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		rows = append(rows, parseRow(r))
	}
	return rows
}

// encodePreds writes a predicate list.
func encodePreds(w *wire.Writer, preds []store.Pred) {
	w.Uvarint(uint64(len(preds)))
	for _, p := range preds {
		w.Uvarint(uint64(p.Col))
		w.Byte(byte(p.Op))
		w.Uvarint(p.Val)
	}
}

// parsePreds reads a predicate list. Semantic validation (column range,
// kind, known operator) happens in the store; here only the allocation
// is bounded.
func parsePreds(r *wire.Reader) []store.Pred {
	n := r.Uvarint()
	if n == 0 {
		return nil
	}
	if n > maxRowCells {
		r.Fail("request carries %d predicates (limit %d)", n, maxRowCells)
		return nil
	}
	preds := make([]store.Pred, 0, n)
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		col := r.Uvarint()
		op := r.Byte()
		val := r.Uvarint()
		if col > maxRowCells {
			r.Fail("predicate column %d (limit %d)", col, maxRowCells)
			return nil
		}
		preds = append(preds, store.Pred{Col: int(col), Op: store.PredOp(op), Val: val})
	}
	return preds
}

// encodeRequest appends req's payload to w. encodeRequest and
// ParseRequest are exact inverses for every valid request — the protocol
// round-trip test pins it, and the fuzzer guarantees ParseRequest never
// panics on anything else.
func encodeRequest(w *wire.Writer, req *Request) {
	if req.Op == 0 || req.Op >= opLimit {
		panic(fmt.Sprintf("server: encoding unknown opcode %d", req.Op))
	}
	w.Byte(req.Op)
	for _, a := range ops[req.Op].args {
		switch a {
		case argPos:
			w.Uvarint(uint64(req.Pos))
		case argValue:
			w.Str(req.Value)
		case argValues:
			w.Uvarint(uint64(len(req.Values)))
			for _, v := range req.Values {
				w.Str(v)
			}
		case argRows:
			encodeRows(w, req.Rows)
		case argSeq:
			w.Uvarint(req.Seq)
		case argMax:
			w.Uvarint(uint64(req.Max))
		case argPreds:
			encodePreds(w, req.Preds)
		}
	}
}

// ParseRequest decodes a request payload. Arbitrary input must error,
// never panic — this is the server's trust boundary and it is fuzzed.
func ParseRequest(payload []byte) (Request, error) {
	var req Request
	r := wire.NewRawReader(payload)
	req.Op = r.Byte()
	if req.Op == 0 || req.Op >= opLimit {
		return req, fmt.Errorf("server: unknown opcode %d", req.Op)
	}
	readPos := func() int {
		v := r.Uvarint()
		if v > math.MaxInt64/2 {
			r.Fail("implausible position %d", v)
			return 0
		}
		return int(v)
	}
	rows := 1 // the rows an append may carry: one, or one per value
	for _, a := range ops[req.Op].args {
		switch a {
		case argPos:
			req.Pos = readPos()
		case argValue:
			req.Value = r.Str()
		case argValues:
			rows = r.Len() // validated against the remaining payload
			req.Values = make([]string, 0, rows)
			for i := 0; i < rows && r.Err() == nil; i++ {
				req.Values = append(req.Values, r.Str())
			}
		case argRows:
			req.Rows = parseRows(r, rows)
		case argSeq:
			req.Seq = r.Uvarint()
		case argMax:
			req.Max = readPos()
		case argPreds:
			req.Preds = parsePreds(r)
		}
	}
	if err := r.Err(); err != nil {
		return req, err
	}
	if err := r.Done(); err != nil {
		return req, err
	}
	return req, nil
}

// GenStat describes one frozen generation in a Stats reply — the remote
// rendering of store.GenInfo.
type GenStat struct {
	ID       uint64
	Len      int
	SizeBits int
	// FilterBits is always 0: generations carry no probe filter any more.
	// The field and its wire slot stay only because bench/ still reads
	// them; the next benchmark PR drops both.
	FilterBits int
	MinValue   string
	MaxValue   string
}

// Stats is the OpStats reply: the store's shape at the serving
// snapshot, plus enough of the host's runtime shape (GOMAXPROCS,
// NumCPU) for a remote client to judge throughput numbers — a 1-core
// container and a 32-core host answer the same Stats otherwise.
type Stats struct {
	Len        int
	Distinct   int
	Height     int
	SizeBits   int
	MemLen     int
	Shards     int
	GoMaxProcs int
	NumCPU     int
	// Router representation split (sharded backends; zero otherwise):
	// total router footprint in bits and the frozen-vs-live chunk count,
	// so the succinct-router memory win is observable remotely.
	RouterBits         int
	RouterFrozenChunks int
	RouterTailChunks   int
	// Replication (protocol version 2): the serving watermark (the
	// global sequence number new snapshots cover), the primary address
	// this server follows ("" when it is itself a primary), and how many
	// followers are subscribed to it.
	Watermark uint64
	Following string
	Followers int
	Gens      []GenStat
	// Schema is the store's pinned column schema (protocol version 3);
	// empty when the store carries no columnar attachments.
	Schema []store.ColumnSpec
}

func encodeStats(w *wire.Writer, st Stats) {
	w.Uvarint(uint64(st.Len))
	w.Uvarint(uint64(st.Distinct))
	w.Uvarint(uint64(st.Height))
	w.Uvarint(uint64(st.SizeBits))
	w.Uvarint(uint64(st.MemLen))
	w.Uvarint(uint64(st.Shards))
	w.Uvarint(uint64(st.GoMaxProcs))
	w.Uvarint(uint64(st.NumCPU))
	w.Uvarint(uint64(st.RouterBits))
	w.Uvarint(uint64(st.RouterFrozenChunks))
	w.Uvarint(uint64(st.RouterTailChunks))
	w.Uvarint(st.Watermark)
	w.Str(st.Following)
	w.Uvarint(uint64(st.Followers))
	w.Uvarint(uint64(len(st.Gens)))
	for _, g := range st.Gens {
		w.Uvarint(g.ID)
		w.Uvarint(uint64(g.Len))
		w.Uvarint(uint64(g.SizeBits))
		w.Uvarint(uint64(g.FilterBits))
		w.Str(g.MinValue)
		w.Str(g.MaxValue)
	}
	w.Uvarint(uint64(len(st.Schema)))
	for _, c := range st.Schema {
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
}

func parseStats(r *wire.Reader) Stats {
	var st Stats
	st.Len = int(r.Uvarint())
	st.Distinct = int(r.Uvarint())
	st.Height = int(r.Uvarint())
	st.SizeBits = int(r.Uvarint())
	st.MemLen = int(r.Uvarint())
	st.Shards = int(r.Uvarint())
	st.GoMaxProcs = int(r.Uvarint())
	st.NumCPU = int(r.Uvarint())
	st.RouterBits = int(r.Uvarint())
	st.RouterFrozenChunks = int(r.Uvarint())
	st.RouterTailChunks = int(r.Uvarint())
	st.Watermark = r.Uvarint()
	st.Following = r.Str()
	st.Followers = int(r.Uvarint())
	n := r.Len()
	for i := 0; i < n && r.Err() == nil; i++ {
		st.Gens = append(st.Gens, GenStat{
			ID: r.Uvarint(), Len: int(r.Uvarint()),
			SizeBits: int(r.Uvarint()), FilterBits: int(r.Uvarint()),
			MinValue: r.Str(), MaxValue: r.Str(),
		})
	}
	nc := r.Len()
	if nc > maxRowCells {
		r.Fail("schema of %d columns (limit %d)", nc, maxRowCells)
		return st
	}
	for i := 0; i < nc && r.Err() == nil; i++ {
		st.Schema = append(st.Schema, store.ColumnSpec{
			Name: r.Str(), Kind: store.ColumnKind(r.Byte()),
		})
	}
	return st
}

// writeFrame writes one length-prefixed frame.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one length-prefixed frame, rejecting implausible
// lengths before allocating. The payload is read into buf's backing array
// when it fits (buf's length is ignored; nil is fine), so a caller that
// passes the previous frame back in reads frame after frame without
// allocating.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read through buf too: a local array would escape
	// through the io.Reader and cost an allocation per frame.
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen, 512)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
