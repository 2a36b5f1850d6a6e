// Package wire implements the tiny binary container format used to
// persist the static (frozen) Wavelet Trie and its succinct components:
// little-endian, length-prefixed fields, a magic/version header per
// top-level object, no reflection and no allocation surprises. Readers
// validate lengths before allocating.
package wire

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores uint64s in
// the wire byte order, making a byte-for-byte view of a word payload
// valid. Zero-copy reads fall back to copying elsewhere.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Writer accumulates a serialized object.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer starting with the given magic and version.
func NewWriter(magic uint32, version uint16) *Writer {
	w := &Writer{}
	w.U32(magic)
	w.U16(version)
	return w
}

// NewRawWriter returns a Writer with no magic/version header — for
// message payloads that live inside an outer frame carrying its own
// versioning, like the network protocol's length-prefixed requests.
func NewRawWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties the Writer and keeps its buffer, so one Writer can encode
// message after message without allocating. Slices Bytes returned earlier
// are overwritten by what is written next.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Raw appends b as it is, with no length prefix — for splicing in bytes
// another Writer already encoded.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Byte appends a single byte (kind tags, bit values).
func (w *Writer) Byte(v byte) { w.buf = append(w.buf, v) }

// U16 appends a uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends a uint64.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// Int appends an int (as uint64; negative values are invalid).
func (w *Writer) Int(v int) {
	if v < 0 {
		panic(fmt.Sprintf("wire: negative int %d", v))
	}
	w.U64(uint64(v))
}

// Words appends a length-prefixed []uint64. The count (and hence the
// payload) is placed on an 8-byte boundary — zero padding precedes it
// when needed — so a Reader in zero-copy mode can view the payload as a
// []uint64 directly when the buffer itself is 8-byte aligned (an mmap'd
// file always is).
func (w *Writer) Words(ws []uint64) {
	for len(w.buf)&7 != 0 {
		w.buf = append(w.buf, 0)
	}
	w.Int(len(ws))
	for _, x := range ws {
		w.U64(x)
	}
}

// Blob appends a length-prefixed byte string (filter bounds, raw keys).
func (w *Writer) Blob(b []byte) {
	w.Int(len(b))
	w.buf = append(w.buf, b...)
}

// Uvarint appends a varint-encoded uint64 — for message fields where
// small values dominate and the fixed 8 bytes of U64 would double a
// typical network frame.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Str appends a uvarint-length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Int32s appends a length-prefixed []int32 (values must be non-negative).
func (w *Writer) Int32s(vs []int32) {
	w.Int(len(vs))
	for _, x := range vs {
		if x < 0 {
			panic("wire: negative int32")
		}
		w.U32(uint32(x))
	}
}

// Reader decodes a serialized object.
type Reader struct {
	buf  []byte
	pos  int
	err  error
	refs bool // zero-copy mode: Words may alias buf
}

// NewReader validates the magic/version header and returns a Reader.
func NewReader(buf []byte, magic uint32, version uint16) (*Reader, error) {
	r := &Reader{buf: buf}
	if got := r.U32(); r.err == nil && got != magic {
		return nil, fmt.Errorf("wire: bad magic %#x, want %#x", got, magic)
	}
	if got := r.U16(); r.err == nil && got != version {
		return nil, fmt.Errorf("wire: unsupported version %d, want %d", got, version)
	}
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// NewRawReader returns a Reader over a headerless buffer written with
// NewRawWriter — the outer frame, not the payload, carries versioning.
func NewRawReader(buf []byte) *Reader { return &Reader{buf: buf} }

// EnableRefs switches the Reader into zero-copy mode: Words may return
// slices aliasing the input buffer instead of heap copies (when the
// payload is 8-byte aligned in memory and the host is little-endian;
// otherwise it still copies). The caller must guarantee the buffer
// outlives everything decoded from it and is never modified — the
// contract of reading an mmap'd, checksum-verified file.
func (r *Reader) EnableRefs() { r.refs = true }

// Refs reports whether zero-copy mode is active. Decoders that retain
// Words results in structures with their own aliasing rules (e.g. bit
// strings) consult this to pick a shared or copying constructor.
func (r *Reader) Refs() bool { return r.refs }

// Err returns the first decoding error encountered.
func (r *Reader) Err() error { return r.err }

// Fail records a decoding error (first one wins); component decoders call
// it when structural validation fails.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Done reports an error unless the buffer is fully consumed and clean.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.pos)
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	// Bounds by subtraction: r.pos+n could overflow a 32-bit int and
	// slip past an addition-style check into a slice panic.
	if n < 0 || n > len(r.buf)-r.pos {
		r.err = fmt.Errorf("wire: truncated input at byte %d", r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int reads an int, rejecting values that cannot be lengths — including
// anything that would truncate (and possibly go negative) in a 32-bit
// int, where a crafted length could otherwise slip past the bounds
// checks and panic a slice expression instead of erroring.
func (r *Reader) Int() int {
	v := r.U64()
	if r.err == nil && (v > 1<<56 || uint64(int(v)) != v) {
		r.err = fmt.Errorf("wire: implausible length %d", v)
		return 0
	}
	return int(v)
}

// Words reads a length-prefixed []uint64, first skipping the alignment
// padding Writer.Words emitted. In zero-copy mode the returned slice
// aliases the input buffer when the payload is 8-byte aligned in memory
// on a little-endian host; otherwise (and always outside zero-copy mode)
// it is a fresh copy.
func (r *Reader) Words() []uint64 {
	if pad := (8 - r.pos&7) & 7; pad != 0 {
		r.take(pad)
	}
	n := r.Int()
	if r.err != nil {
		return nil
	}
	// Divide rather than multiply: 8*n can overflow a 32-bit int and
	// turn a crafted length into a huge allocation or a slice panic.
	if n > (len(r.buf)-r.pos)/8 {
		r.err = fmt.Errorf("wire: word slice of %d exceeds input", n)
		return nil
	}
	b := r.take(8 * n)
	if b == nil {
		return nil
	}
	if n == 0 {
		return make([]uint64, 0)
	}
	if r.refs && hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))&7 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// Blob reads a length-prefixed byte string written by Writer.Blob. The
// returned slice is a copy, safe to retain.
func (r *Reader) Blob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Uvarint reads a varint-encoded uint64 written by Writer.Uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("wire: bad uvarint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// Len reads a uvarint and validates it as a length (it must fit an int
// and be plausible against the remaining input) — the same hardening
// Int applies to fixed-width lengths.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err == nil && (v > 1<<56 || uint64(int(v)) != v || int(v) > len(r.buf)-r.pos) {
		r.err = fmt.Errorf("wire: implausible length %d", v)
		return 0
	}
	return int(v)
}

// Str reads a uvarint-length-prefixed string written by Writer.Str. The
// returned string is a copy, safe to retain.
func (r *Reader) Str() string {
	n := r.Len()
	if r.err != nil {
		return ""
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Int32s reads a length-prefixed []int32.
func (r *Reader) Int32s() []int32 {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	if n > (len(r.buf)-r.pos)/4 {
		r.err = fmt.Errorf("wire: int32 slice of %d exceeds input", n)
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.U32())
	}
	return out
}
