package wire

import (
	"testing"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter(0xABCD1234, 3)
	w.U16(7)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.Int(42)
	w.Words([]uint64{1, 2, 3})
	w.Words(nil)
	r, err := NewReader(w.Bytes(), 0xABCD1234, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.U16() != 7 || r.U32() != 1<<30 || r.U64() != 1<<60 || r.Int() != 42 {
		t.Fatal("scalar round trip")
	}
	ws := r.Words()
	if len(ws) != 3 || ws[2] != 3 {
		t.Fatal("words round trip")
	}
	if len(r.Words()) != 0 {
		t.Fatal("empty words")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderValidation(t *testing.T) {
	w := NewWriter(0x1111, 1)
	if _, err := NewReader(w.Bytes(), 0x2222, 1); err == nil {
		t.Error("magic mismatch accepted")
	}
	if _, err := NewReader(w.Bytes(), 0x1111, 2); err == nil {
		t.Error("version mismatch accepted")
	}
	if _, err := NewReader([]byte{1, 2}, 0x1111, 1); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestTruncationAndTrailing(t *testing.T) {
	w := NewWriter(1, 1)
	w.Words(make([]uint64, 10))
	buf := w.Bytes()
	r, _ := NewReader(buf[:len(buf)-4], 1, 1)
	r.Words()
	if r.Err() == nil {
		t.Error("truncated words accepted")
	}
	// Implausible length must not allocate.
	w2 := NewWriter(1, 1)
	w2.U64(1 << 60) // as a length prefix
	r2, _ := NewReader(w2.Bytes(), 1, 1)
	r2.Words()
	if r2.Err() == nil {
		t.Error("implausible length accepted")
	}
	// Trailing bytes detected by Done.
	w3 := NewWriter(1, 1)
	w3.U16(5)
	r3, _ := NewReader(append(w3.Bytes(), 0), 1, 1)
	r3.U16()
	if err := r3.Done(); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestFailFirstWins(t *testing.T) {
	r, _ := NewReader(NewWriter(1, 1).Bytes(), 1, 1)
	r.Fail("first %d", 1)
	r.Fail("second")
	if r.Err() == nil || r.Err().Error() != "wire: first 1" {
		t.Errorf("err = %v", r.Err())
	}
}

func TestNegativePanics(t *testing.T) {
	w := NewWriter(1, 1)
	for _, f := range []func(){
		func() { w.Int(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestRawRoundTrip(t *testing.T) {
	w := NewRawWriter()
	w.Byte(7)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(1 << 40)
	w.Str("")
	w.Str("hello, wire")
	w.U64(42)

	r := NewRawReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Errorf("Byte = %d", got)
	}
	for _, want := range []uint64{0, 300, 1 << 40} {
		if got := r.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range []string{"", "hello, wire"} {
		if got := r.Str(); got != want {
			t.Errorf("Str = %q, want %q", got, want)
		}
	}
	if got := r.U64(); got != 42 {
		t.Errorf("U64 = %d", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done: %v", err)
	}
}

func TestRawReaderTruncation(t *testing.T) {
	w := NewRawWriter()
	w.Str("payload")
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewRawReader(full[:cut])
		r.Str()
		if r.Err() == nil {
			t.Errorf("cut at %d: no error", cut)
		}
	}
	// A length claiming more than the remaining input must fail, not
	// allocate.
	huge := NewRawWriter()
	huge.Uvarint(1 << 50)
	r := NewRawReader(huge.Bytes())
	if r.Str(); r.Err() == nil {
		t.Error("huge claimed length: no error")
	}
}

// TestWriterReuse: a Reset Writer encodes the next message into the same
// buffer and Raw splices another Writer's bytes in unprefixed.
func TestWriterReuse(t *testing.T) {
	w, body := NewRawWriter(), NewRawWriter()
	for round, vals := range [][]string{{"alpha", "", "beta"}, {"g"}, {}} {
		w.Reset()
		body.Reset()
		for _, v := range vals {
			body.Str(v)
		}
		w.Uvarint(uint64(len(vals)))
		w.Raw(body.Bytes())
		if round > 0 && cap(w.Bytes()) < 8 {
			t.Fatalf("round %d: Reset dropped the buffer", round)
		}
		r := NewRawReader(w.Bytes())
		if n := r.Len(); n != len(vals) {
			t.Fatalf("round %d: count %d, want %d", round, n, len(vals))
		}
		for _, want := range vals {
			if got := r.Str(); got != want {
				t.Fatalf("round %d: Str = %q, want %q", round, got, want)
			}
		}
		if err := r.Done(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
