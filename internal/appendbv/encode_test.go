package appendbv

import (
	"math/rand"
	"testing"

	"repro/internal/wire"
)

func TestEncodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := []*Vector{
		New(),
		NewInit(0, 0),
		NewInit(1, 12345),
		NewInit(0, 7),
	}
	// A vector crossing several sealed segments, plus one with an init run
	// and a partial tail.
	big := New()
	for i := 0; i < 3*SegmentBits+977; i++ {
		big.Append(byte(r.Intn(2)))
	}
	cases = append(cases, big)
	mixed := NewInit(1, 999)
	appendRun(mixed, 0, SegmentBits)
	appendRun(mixed, 1, 63)
	cases = append(cases, mixed)

	for ci, v := range cases {
		w := wire.NewWriter(1, 1)
		v.EncodeTo(w)
		rd, _ := wire.NewReader(w.Bytes(), 1, 1)
		got := DecodeFrom(rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.Len() != v.Len() || got.Ones() != v.Ones() {
			t.Fatalf("case %d: totals differ (%d/%d bits, %d/%d ones)",
				ci, got.Len(), v.Len(), got.Ones(), v.Ones())
		}
		step := 1 + v.Len()/257
		for pos := 0; pos < v.Len(); pos += step {
			if got.Access(pos) != v.Access(pos) {
				t.Fatalf("case %d: Access(%d) differs", ci, pos)
			}
			if got.Rank1(pos) != v.Rank1(pos) {
				t.Fatalf("case %d: Rank1(%d) differs", ci, pos)
			}
		}
		for idx := 0; idx < v.Ones(); idx += 1 + v.Ones()/97 {
			if got.Select1(idx) != v.Select1(idx) {
				t.Fatalf("case %d: Select1(%d) differs", ci, idx)
			}
		}
		// Appending must resume identically after a round trip.
		v.Append(1)
		got.Append(1)
		if got.Len() != v.Len() || got.Rank1(got.Len()) != v.Rank1(v.Len()) {
			t.Fatalf("case %d: post-decode Append diverges", ci)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	v := NewInit(1, 100)
	appendRun(v, 0, SegmentBits+100)
	w := wire.NewWriter(1, 1)
	v.EncodeTo(w)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut += 1 + len(data)/50 {
		rd, err := wire.NewReader(data[:cut], 1, 1)
		if err != nil {
			continue // header truncation already rejected
		}
		DecodeFrom(rd)
		if rd.Done() == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// appendRun appends cnt copies of bit to v.
func appendRun(v *Vector, bit byte, cnt int) {
	for i := 0; i < cnt; i++ {
		v.Append(bit)
	}
}
