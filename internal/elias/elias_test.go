package elias

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGammaRoundTrip(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5, 7, 8, 100, 1 << 20, 1<<63 - 1, 1 << 63, math.MaxUint64}
	var w Writer
	for _, v := range vals {
		w.WriteGamma(v)
	}
	r := NewReader(w.Words(), w.Len())
	for _, v := range vals {
		if got := r.ReadGamma(); got != v {
			t.Fatalf("gamma round trip: got %d want %d", got, v)
		}
	}
	if r.pos != r.n {
		t.Fatalf("%d bits left over", r.n-r.pos)
	}
}

func TestCodeLengths(t *testing.T) {
	// Known γ lengths: 1→1, 2..3→3, 4..7→5, 8..15→7.
	cases := []struct {
		v    uint64
		glen int
	}{{1, 1}, {2, 3}, {3, 3}, {4, 5}, {7, 5}, {8, 7}, {255, 15}, {256, 17}}
	for _, c := range cases {
		if got := GammaLen(c.v); got != c.glen {
			t.Errorf("GammaLen(%d)=%d want %d", c.v, got, c.glen)
		}
	}
}

func TestLenMatchesWritten(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 500; i++ {
		v := uint64(r.Int63n(1 << 40))
		if v == 0 {
			v = 1
		}
		var w Writer
		w.WriteGamma(v)
		if w.Len() != GammaLen(v) {
			t.Fatalf("γ(%d): wrote %d bits, GammaLen says %d", v, w.Len(), GammaLen(v))
		}
	}
}

func TestMixedStream(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	type item struct {
		kind int // 0 bit, 1 bits, 2 gamma
		v    uint64
		nb   int
	}
	var items []item
	var w Writer
	for i := 0; i < 2000; i++ {
		it := item{kind: r.Intn(3)}
		switch it.kind {
		case 0:
			it.v = uint64(r.Intn(2))
			w.WriteBit(byte(it.v))
		case 1:
			it.nb = r.Intn(65)
			it.v = r.Uint64()
			if it.nb < 64 {
				it.v &= 1<<uint(it.nb) - 1
			}
			w.WriteBits(it.v, it.nb)
		case 2:
			it.v = uint64(r.Int63n(1<<30)) + 1
			w.WriteGamma(it.v)
		}
		items = append(items, it)
	}
	rd := NewReader(w.Words(), w.Len())
	for i, it := range items {
		var got uint64
		switch it.kind {
		case 0:
			got = uint64(rd.ReadBit())
		case 1:
			got = rd.ReadBits(it.nb)
		case 2:
			got = rd.ReadGamma()
		}
		if got != it.v {
			t.Fatalf("item %d kind %d: got %d want %d", i, it.kind, got, it.v)
		}
	}
}

func TestPanics(t *testing.T) {
	var w Writer
	for _, f := range []func(){
		func() { w.WriteGamma(0) },
		func() { GammaLen(0) },
		func() { w.WriteBits(0, 65) },
		func() { NewReader(nil, 0).ReadBit() },
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

func TestQuickGammaDelta(t *testing.T) {
	f := func(vs []uint64) bool {
		var w Writer
		for i := range vs {
			vs[i] = vs[i]%(1<<62) + 1
			w.WriteGamma(vs[i])
		}
		r := NewReader(w.Words(), w.Len())
		for _, v := range vs {
			if r.ReadGamma() != v {
				return false
			}
		}
		return r.pos == r.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteReadGamma(b *testing.B) {
	r := rand.New(rand.NewSource(22))
	vals := make([]uint64, 1024)
	for i := range vals {
		vals[i] = uint64(r.Int63n(1<<20)) + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w Writer
		for _, v := range vals {
			w.WriteGamma(v)
		}
		rd := NewReader(w.Words(), w.Len())
		for range vals {
			rd.ReadGamma()
		}
	}
}
