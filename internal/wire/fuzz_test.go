package wire

import (
	"bytes"
	"testing"
)

// FuzzReader drives the primitive readers over arbitrary input, using
// the input itself to choose the read sequence. Truncated or corrupt
// buffers must surface as recorded errors — never a panic — and slice
// reads must never allocate more than the input could possibly hold.
func FuzzReader(f *testing.F) {
	w := NewWriter(0xABCD1234, 3)
	w.Byte(7)
	w.U16(9)
	w.U32(77)
	w.U64(1 << 40)
	w.Int(12)
	w.Words([]uint64{1, 2, 3})
	f.Add(w.Bytes(), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{}, []byte{5})
	f.Add([]byte{0x34, 0x12, 0xcd, 0xab, 3, 0}, []byte{6, 6, 6})

	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r, err := NewReader(data, 0xABCD1234, 3)
		if err != nil {
			return
		}
		for _, op := range ops {
			switch op % 7 {
			case 0:
				r.Byte()
			case 1:
				r.U16()
			case 2:
				r.U32()
			case 3:
				r.U64()
			case 4:
				r.Int()
			case 5:
				if ws := r.Words(); r.Err() == nil && len(ws)*8 > len(data) {
					t.Fatalf("Words returned %d entries from %d input bytes", len(ws), len(data))
				}
			case 6:
				r.Fail("probe %d", op)
			}
		}
		// Done must agree with Err: a clean reader with unconsumed bytes
		// is an error; an errored reader stays errored.
		err = r.Done()
		if r.Err() != nil && err == nil {
			t.Fatal("Done() == nil after a recorded error")
		}
	})
}

// FuzzRoundTrip checks that whatever a Writer produces, a Reader
// consumes back verbatim.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint16(2), uint64(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, magic uint32, version uint16, x uint64, raw []byte) {
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for k := 0; k < 8; k++ {
				words[i] |= uint64(raw[i*8+k]) << (8 * k)
			}
		}
		w := NewWriter(magic, version)
		w.U64(x)
		w.Words(words)
		w.Int(len(raw))
		r, err := NewReader(w.Bytes(), magic, version)
		if err != nil {
			t.Fatalf("own header rejected: %v", err)
		}
		if got := r.U64(); got != x {
			t.Fatalf("U64 = %d, want %d", got, x)
		}
		back := r.Words()
		if len(back) != len(words) || (len(words) > 0 && !bytes.Equal(raw[:len(words)*8], wordsBytes(back))) {
			t.Fatal("Words round trip differs")
		}
		if got := r.Int(); got != len(raw) {
			t.Fatalf("Int = %d, want %d", got, len(raw))
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

func wordsBytes(ws []uint64) []byte {
	out := make([]byte, len(ws)*8)
	for i, w := range ws {
		for k := 0; k < 8; k++ {
			out[i*8+k] = byte(w >> (8 * k))
		}
	}
	return out
}
