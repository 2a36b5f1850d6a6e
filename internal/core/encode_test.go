package core

import (
	"testing"

	"repro/internal/bitstr"
	"repro/internal/wire"
)

func encSeq() []bitstr.BitString {
	raw := []string{"alpha", "beta", "alpha", "", "gamma", "alpha", "beta", "delta"}
	out := make([]bitstr.BitString, len(raw))
	for i, s := range raw {
		out[i] = bitstr.EncodeString(s)
	}
	return out
}

// roundTrip drives encode+decode through wire and compares the full
// bit-level query surface.
func checkSame(t *testing.T, name string, a, b interface {
	Len() int
	AlphabetSize() int
	AccessBits(int) bitstr.BitString
	RankBits(bitstr.BitString, int) int
	SelectBits(bitstr.BitString, int) (int, bool)
}) {
	t.Helper()
	if a.Len() != b.Len() || a.AlphabetSize() != b.AlphabetSize() {
		t.Fatalf("%s: totals differ", name)
	}
	for pos := 0; pos < a.Len(); pos++ {
		sa, sb := a.AccessBits(pos), b.AccessBits(pos)
		if bitstr.Compare(sa, sb) != 0 {
			t.Fatalf("%s: AccessBits(%d) differs", name, pos)
		}
		if ra, rb := a.RankBits(sa, a.Len()), b.RankBits(sa, b.Len()); ra != rb {
			t.Fatalf("%s: RankBits(%v) = %d vs %d", name, sa, ra, rb)
		}
		pa, oka := a.SelectBits(sa, 0)
		pb, okb := b.SelectBits(sa, 0)
		if pa != pb || oka != okb {
			t.Fatalf("%s: SelectBits differs", name)
		}
	}
}

func TestEncodeAppendOnly(t *testing.T) {
	a := NewAppendOnlyFromBits(encSeq())
	w := wire.NewWriter(1, 1)
	a.EncodeTo(w)
	r, _ := wire.NewReader(w.Bytes(), 1, 1)
	got, err := DecodeAppendOnly(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "appendonly", a, got)
	// Mutation resumes.
	s := bitstr.EncodeString("epsilon")
	a.AppendBits(s)
	got.AppendBits(s)
	checkSame(t, "appendonly+append", a, got)
}

func TestEncodeDynamic(t *testing.T) {
	d := NewDynamicFromBits(encSeq())
	w := wire.NewWriter(1, 1)
	d.EncodeTo(w)
	r, _ := wire.NewReader(w.Bytes(), 1, 1)
	got, err := DecodeDynamic(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "dynamic", d, got)
	// Mutation resumes, including deletes that shrink the alphabet.
	s := bitstr.EncodeString("zeta")
	d.InsertBits(s, 2)
	got.InsertBits(s, 2)
	da := d.DeleteAt(4)
	db := got.DeleteAt(4)
	if bitstr.Compare(da, db) != 0 {
		t.Fatal("DeleteAt differs after decode")
	}
	checkSame(t, "dynamic+mutate", d, got)
}

func TestDecodeRejectsLengthMismatch(t *testing.T) {
	// Serialize an AppendOnly, then corrupt the element count so the
	// root bitvector length no longer matches n.
	a := NewAppendOnlyFromBits(encSeq())
	w := wire.NewWriter(1, 1)
	a.EncodeTo(w)
	data := append([]byte(nil), w.Bytes()...)
	data[6] ^= 0x01 // low byte of n
	r, _ := wire.NewReader(data, 1, 1)
	if _, err := DecodeAppendOnly(r); err == nil {
		t.Fatal("corrupted element count accepted")
	}
}
