package eliasfano

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/wire"
)

func TestMonotoneEncodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(210))
	for _, k := range []int{0, 1, 100, 5000} {
		vals := make([]uint64, k)
		for i := range vals {
			vals[i] = uint64(r.Int63n(1 << 40))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		m := FromSorted(vals, 1<<40)
		w := wire.NewWriter(1, 1)
		m.EncodeTo(w)
		rd, err := wire.NewReader(w.Bytes(), 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := DecodeMonotone(rd)
		if err := rd.Done(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got.Len() != k {
			t.Fatalf("k=%d: Len=%d", k, got.Len())
		}
		for i, v := range vals {
			if got.Get(i) != v {
				t.Fatalf("k=%d: Get(%d)", k, i)
			}
		}
	}
}

func TestPartialSumEncodeRoundTrip(t *testing.T) {
	p := NewPartialSum([]int{3, 0, 9, 1})
	w := wire.NewWriter(1, 1)
	p.EncodeTo(w)
	rd, _ := wire.NewReader(w.Bytes(), 1, 1)
	got := DecodePartialSum(rd)
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	if start, end := got.Range(2); got.Count() != 4 || got.Total() != 13 || end-start != 9 {
		t.Fatalf("round trip: count=%d total=%d", got.Count(), got.Total())
	}
}

func TestDecodeMonotoneRejectsCorruption(t *testing.T) {
	m := FromSorted([]uint64{1, 5, 9}, 16)
	w := wire.NewWriter(1, 1)
	m.EncodeTo(w)
	good := w.Bytes()

	// Truncated.
	rd, _ := wire.NewReader(good[:len(good)-6], 1, 1)
	DecodeMonotone(rd)
	if rd.Err() == nil {
		t.Error("truncated encoding accepted")
	}
	// Corrupt lowBits field (bytes 6..14 = k, 14..22 = universe, 22..30 = lowBits).
	bad := append([]byte{}, good...)
	bad[22] = 77
	rd2, _ := wire.NewReader(bad, 1, 1)
	DecodeMonotone(rd2)
	if rd2.Err() == nil {
		t.Error("bogus lowBits accepted")
	}
}

func TestMonotoneUniverseAccessor(t *testing.T) {
	m := FromSorted([]uint64{0, 3}, 10)
	if m.universe != 10 {
		t.Fatalf("universe=%d", m.universe)
	}
	// Zero universe is clamped to 1.
	if FromSorted(nil, 0).universe != 1 {
		t.Fatal("zero universe clamp")
	}
}

func TestPartialSumPanics(t *testing.T) {
	p := NewPartialSum([]int{2, 3})
	for _, f := range []func(){
		func() { p.Offset(3) },
		func() { p.Offset(-1) },
		func() { p.Find(5) },
		func() { NewPartialSum([]int{-1}) },
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
