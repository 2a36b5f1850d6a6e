package rrr

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

func TestEncodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(230))
	for _, n := range []int{0, 1, 63, 64, 10000} {
		for _, p := range []float64{0, 0.3, 1} {
			v, plain := buildBoth(r, n, p)
			w := wire.NewWriter(1, 1)
			v.EncodeTo(w)
			rd, _ := wire.NewReader(w.Bytes(), 1, 1)
			got := DecodeFrom(rd)
			if err := rd.Done(); err != nil {
				t.Fatalf("n=%d p=%v: %v", n, p, err)
			}
			if got.Len() != n || got.Ones() != plain.Ones() {
				t.Fatalf("n=%d p=%v: totals differ", n, p)
			}
			for i := 0; i < n; i += 1 + n/31 {
				if got.Access(i) != plain.Access(i) || got.Rank1(i) != plain.Rank1(i) {
					t.Fatalf("n=%d p=%v: content differs at %d", n, p, i)
				}
			}
		}
	}
}

func TestDecodeRejectsShapeMismatch(t *testing.T) {
	r := rand.New(rand.NewSource(231))
	v, _ := buildBoth(r, 5000, 0.5)
	w := wire.NewWriter(1, 1)
	v.EncodeTo(w)
	buf := w.Bytes()
	// Corrupt the length header (bytes 6..14) hard enough to change the
	// implied block count, so the directory arrays no longer match.
	buf[7] ^= 0x40
	rd, _ := wire.NewReader(buf, 1, 1)
	DecodeFrom(rd)
	if rd.Err() == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Truncation.
	rd2, _ := wire.NewReader(w.Bytes()[:20], 1, 1)
	DecodeFrom(rd2)
	if rd2.Err() == nil {
		t.Fatal("truncated input accepted")
	}
}

// TestDecodeRejectsInconsistentBlocks corrupts block bodies so that the
// shape checks still pass: an offset past its class's range, and a last
// block whose set bits moved into the padding (fewer ones among the valid
// bits than the class field counts — the disagreement that let a wavelet
// trie position past the end of a child bitvector). A copying reader must
// refuse both; a zero-copy reader (checksummed input) skips the pass.
func TestDecodeRejectsInconsistentBlocks(t *testing.T) {
	encode := func(v *Vector) []byte {
		w := wire.NewWriter(1, 1)
		v.EncodeTo(w)
		return w.Bytes()
	}
	decode := func(buf []byte, refs bool) error {
		rd, _ := wire.NewReader(buf, 1, 1)
		if refs {
			rd.EnableRefs()
		}
		DecodeFrom(rd)
		return rd.Done()
	}
	// One block of class 2 over 10 valid bits, ones at positions 0 and 1:
	// the largest offset of the class. Clearing its top bit moves both ones
	// past bit 10 (to 19 and 37).
	v := FromWords([]uint64{0b11}, 10)
	good := encode(v)
	if err := decode(good, false); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	offsets := len(bad) - 8 // the single offset word is the last field
	top := offsetWidth[2] - 1
	bad[offsets+top/8] ^= 1 << uint(top%8)
	if err := decode(bad, false); err == nil {
		t.Fatal("last block with set bits in its padding accepted")
	}
	if err := decode(bad, true); err != nil {
		t.Fatalf("zero-copy decode ran the block pass: %v", err)
	}
	// A full block of class 1 whose 6-bit offset reads 63 = C(63,1).
	v = FromWords([]uint64{1 << 62, 0}, 100)
	bad = encode(v)
	offsets = len(bad) - 8
	bad[offsets] |= 0x3f
	if err := decode(bad, false); err == nil {
		t.Fatal("offset past its class's range accepted")
	}
}
