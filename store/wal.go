package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// The write-ahead log is the only mutable file in the store: a 6-byte
// header (magic + version) followed by self-delimiting records, each a
// u32 payload length, a u32 CRC-32 (IEEE) of the payload, then the
// payload bytes — one appended string per record (see appendWALRecord for
// the payload layout). Appends are a single contiguous write, so a crash
// leaves at most one torn record at the tail; replay truncates at the
// first invalid record and never guesses past it.
//
// The same framing (header + checksummed records) backs the sharded
// store's ROUTER log under its own magic and version — see router.go.
//
// Version 2 is the only WAL version read or written: version-1 payloads
// carried a flag bit (0x01, "new to the alphabet") that no longer exists,
// and a reader that took such a record for a corrupt tail would truncate
// acknowledged data — so an older log is refused whole, untouched.
const (
	walMagic   = 0x4C415757 // "WWAL" little-endian
	walVersion = 2

	walHeaderLen    = 6
	walRecHeaderLen = 8
	walMaxRecord    = 1 << 30 // sanity cap on a single payload
)

// WAL payload flag bits; see appendWALRecord.
const (
	walFlagSeq   = 1 << 0 // a global sequence number follows the flag
	walFlagRow   = 1 << 1 // the value is length-prefixed and a payload row follows it
	walFlagLimit = walFlagSeq | walFlagRow
	walSeqMaxLen = binary.MaxVarintLen64
)

// Row cell tags inside a walFlagRow record: NULL, uvarint number, or
// length-prefixed bytes.
const (
	walCellNull  = 0
	walCellU64   = 1
	walCellBytes = 2
)

// wal is an open append-only log positioned for appending.
type wal struct {
	f    *os.File
	path string
	sync bool
}

// walRecordBound returns an upper bound on the framed size of the record
// appendWALRecord writes for (v, row), for buffer sizing and record caps.
func walRecordBound(v string, row Row) int {
	size := walRecHeaderLen + 1 + walSeqMaxLen + len(v)
	if row != nil {
		size += 2 * walSeqMaxLen // value length, cell count
		for _, c := range row {
			size += 1 + walSeqMaxLen + len(c.b)
		}
	}
	return size
}

// appendWALRecord frames one append onto buf, the payload encoded in
// place behind its record header: a flag byte; with hasSeq (a shard's
// record) the global sequence number as a uvarint, which is what lets a
// sharded recovery interleave the shards' unflushed tails back into global
// append order; then the value — its bytes to the end of the record, or,
// when the append carries a payload row, its uvarint length, its bytes and
// the row cells (see appendRowWire). A record without a row replays with
// an all-NULL one.
func appendWALRecord(buf []byte, v string, seq uint64, hasSeq bool, row Row) ([]byte, error) {
	start := len(buf)
	var flag byte
	if hasSeq {
		flag |= walFlagSeq
	}
	if row != nil {
		flag |= walFlagRow
	}
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, flag)
	if hasSeq {
		buf = binary.AppendUvarint(buf, seq)
	}
	if row == nil {
		buf = append(buf, v...)
	} else {
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
		buf = appendRowWire(buf, row)
	}
	payload := buf[start+walRecHeaderLen:]
	if len(payload) > walMaxRecord {
		return nil, fmt.Errorf("store: WAL record of %d bytes exceeds limit", len(payload))
	}
	frameRecord(buf[start:])
	return buf, nil
}

// frameRecord fills in the header of rec, one record whose payload is
// already in place behind walRecHeaderLen reserved bytes: the payload's
// length and checksum.
func frameRecord(rec []byte) {
	payload := rec[walRecHeaderLen:]
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
}

// appendRowWire encodes a row: uvarint cell count, then per cell a tag
// byte and — for numbers — the value as a uvarint, or — for blobs —
// the uvarint length and bytes. The count rides in the record itself so
// validWALPayload stays schema-independent.
func appendRowWire(p []byte, row Row) []byte {
	p = binary.AppendUvarint(p, uint64(len(row)))
	for _, c := range row {
		switch c.kind {
		case ColUint64:
			p = append(p, walCellU64)
			p = binary.AppendUvarint(p, c.num)
		case ColBytes:
			p = append(p, walCellBytes)
			p = binary.AppendUvarint(p, uint64(len(c.b)))
			p = append(p, c.b...)
		default:
			p = append(p, walCellNull)
		}
	}
	return p
}

// walRecord decodes a payload: the value, the sequence number when the
// record carries one, and the row (nil when it carries none, which applies
// as all-NULL). parseWAL only yields payloads validWALPayload passed, so
// decoding cannot fail. The row's blob cells are copied (WAL read buffers
// are transient).
func walRecord(payload []byte) (v string, seq uint64, hasSeq bool, row Row) {
	flag := payload[0]
	body := payload[1:]
	if flag&walFlagSeq != 0 {
		var n int
		seq, n = binary.Uvarint(body)
		body = body[n:]
		hasSeq = true
	}
	if flag&walFlagRow == 0 {
		return string(body), seq, hasSeq, nil
	}
	vlen, n := binary.Uvarint(body)
	body = body[n:]
	v = string(body[:vlen])
	body = body[vlen:]
	ncells, n := binary.Uvarint(body)
	body = body[n:]
	row = make(Row, ncells)
	for i := range row {
		tag := body[0]
		body = body[1:]
		switch tag {
		case walCellU64:
			num, n := binary.Uvarint(body)
			body = body[n:]
			row[i] = U64(num)
		case walCellBytes:
			blen, n := binary.Uvarint(body)
			body = body[n:]
			row[i] = Blob(append([]byte(nil), body[:blen]...))
			body = body[blen:]
		}
	}
	return v, seq, hasSeq, row
}

// validWALPayload reports whether a checksummed payload has the shape
// appendWALRecord produces. A record our writer cannot have written is
// corruption all the same, and the replay truncation point must stop
// before it. Row records are structurally parsed end to end — walRecord
// relies on this to decode without bounds checks.
func validWALPayload(payload []byte) bool {
	if len(payload) == 0 || payload[0] > walFlagLimit {
		return false
	}
	flag := payload[0]
	body := payload[1:]
	if flag&walFlagSeq != 0 {
		_, n := binary.Uvarint(body)
		if n <= 0 {
			return false
		}
		body = body[n:]
	}
	if flag&walFlagRow == 0 {
		return true
	}
	vlen, n := binary.Uvarint(body)
	if n <= 0 || vlen > uint64(len(body)-n) {
		return false
	}
	body = body[n+int(vlen):]
	ncells, n := binary.Uvarint(body)
	if n <= 0 || ncells > maxColumns {
		return false
	}
	body = body[n:]
	for i := uint64(0); i < ncells; i++ {
		if len(body) == 0 {
			return false
		}
		tag := body[0]
		body = body[1:]
		switch tag {
		case walCellNull:
		case walCellU64:
			_, n := binary.Uvarint(body)
			if n <= 0 {
				return false
			}
			body = body[n:]
		case walCellBytes:
			blen, n := binary.Uvarint(body)
			if n <= 0 || blen > uint64(len(body)-n) {
				return false
			}
			body = body[n+int(blen):]
		default:
			return false
		}
	}
	// A row record is fully self-delimiting: trailing bytes are
	// corruption, not value data.
	return len(body) == 0
}

// logHeader returns the 6-byte header of a log of the given magic and
// version.
func logHeader(magic uint32, version uint16) []byte {
	hdr := make([]byte, 0, walHeaderLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, magic)
	hdr = binary.LittleEndian.AppendUint16(hdr, version)
	return hdr
}

// createLog creates (or truncates) a fresh log at path, syncs the header
// and the directory entry, so the file both exists and is well-formed
// before any record is acknowledged — otherwise a power cut could drop
// the whole file and recovery would silently open an empty store.
func createLog(path string, magic uint32, syncEach bool) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(logHeader(magic, walVersion)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	syncDir(filepath.Dir(path))
	return &wal{f: f, path: path, sync: syncEach}, nil
}

// createWAL creates a fresh write-ahead log.
func createWAL(path string, syncEach bool) (*wal, error) {
	return createLog(path, walMagic, syncEach)
}

// timedSync fsyncs the log, recording the call's latency — the
// durability cost every synchronous append and group commit pays.
func (w *wal) timedSync() error {
	t0 := time.Now()
	err := w.f.Sync()
	met.walFsyncSeconds.ObserveSince(t0)
	return err
}

// appendFramed writes a buffer of pre-framed records (built with
// appendWALRecord or router.appendLog) as one contiguous write and at
// most one fsync — the group-commit write: a batch of appends costs the
// log exactly what a single append costs, regardless of batch size.
// nrec is the record count inside buf (the frames are already built, so
// the log cannot count them itself); per-payload size caps are also the
// framer's job.
func (w *wal) appendFramed(buf []byte, nrec int) error {
	if len(buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	met.walRecords.Add(int64(nrec))
	met.walBytes.Add(int64(len(buf)))
	if w.sync {
		return w.timedSync()
	}
	return nil
}

// commit fsyncs everything appended so far — for logs opened without
// per-record sync that still need an explicit durability point (the
// sharded store's ROUTER log ahead of a shard flush).
func (w *wal) commit() error {
	return w.timedSync()
}

func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// parseLog decodes a checksummed-record log image. It returns the
// decoded record payloads and the byte offset up to which the image is
// valid; everything past good is a torn or corrupt tail to be truncated.
// valid vets each checksummed payload against the writer's shape — a
// record the writer cannot have produced is treated as corruption. A
// non-nil error means the file is not such a log at all (bad magic or
// version) and nothing can be trusted. Arbitrary input must never panic
// — this function is fuzzed (through parseWAL and FuzzParseRouter).
func parseLog(data []byte, magic uint32, version uint16, valid func([]byte) bool) (records [][]byte, good int, err error) {
	if len(data) < walHeaderLen {
		// A crash between file creation and the header write; the caller
		// truncates to zero and rewrites the header.
		return nil, 0, nil
	}
	if m := binary.LittleEndian.Uint32(data); m != magic {
		return nil, 0, fmt.Errorf("store: bad log magic %#x, want %#x", m, magic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != version {
		return nil, 0, fmt.Errorf("store: unsupported log version %d, want %d", v, version)
	}
	pos := walHeaderLen
	for {
		// All bounds checks subtract rather than add: on 32-bit platforms
		// int(u32) and pos+n sums can overflow and slice-bounds panic.
		if len(data)-pos < walRecHeaderLen {
			return records, pos, nil
		}
		n32 := binary.LittleEndian.Uint32(data[pos:])
		sum := binary.LittleEndian.Uint32(data[pos+4:])
		if n32 > walMaxRecord {
			return records, pos, nil
		}
		n := int(n32)
		if n > len(data)-pos-walRecHeaderLen {
			return records, pos, nil
		}
		payload := data[pos+walRecHeaderLen : pos+walRecHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return records, pos, nil
		}
		// Enforce the writer's payload shape too, so replay and the
		// on-disk truncation point never diverge.
		if !valid(payload) {
			return records, pos, nil
		}
		records = append(records, payload)
		pos += walRecHeaderLen + n
	}
}

// recoverLog reads the log at path, truncates any torn tail, and returns
// the surviving record payloads plus the log reopened for appending at
// the recovered offset. A missing file is recovered as a fresh empty log.
func recoverLog(path string, magic uint32, syncEach bool, valid func([]byte) bool) (records [][]byte, w *wal, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	records, good, err := parseLog(data, magic, walVersion, valid)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %s: %w", path, err)
	}
	if len(data) > good {
		// Bytes past the last valid record: a torn write or corruption
		// the truncate below (or the fresh-header rewrite) discards.
		met.walTornTails.Inc()
	}
	if good < walHeaderLen {
		// Empty, missing, or torn before the header completed: start over.
		w, err := createLog(path, magic, syncEach)
		return nil, w, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(good), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	// Copy the payloads out: they alias the read buffer.
	out := make([][]byte, len(records))
	for i, r := range records {
		out[i] = append([]byte(nil), r...)
	}
	return out, &wal{f: f, path: path, sync: syncEach}, nil
}

// recoverWAL recovers a write-ahead log; see recoverLog.
func recoverWAL(path string, syncEach bool) (records [][]byte, w *wal, err error) {
	return recoverLog(path, walMagic, syncEach, validWALPayload)
}
