package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is the brute-force reference.
type naive struct{ bits []byte }

func (nv *naive) rank(b byte, pos int) int {
	r := 0
	for _, x := range nv.bits[:pos] {
		if x == b {
			r++
		}
	}
	return r
}

func (nv *naive) sel(b byte, idx int) int {
	for i, x := range nv.bits {
		if x == b {
			if idx == 0 {
				return i
			}
			idx--
		}
	}
	return -1
}

func randomVector(r *rand.Rand, n int, p float64) (*Vector, *naive) {
	b := NewBuilder(n)
	nv := &naive{bits: make([]byte, 0, n)}
	for i := 0; i < n; i++ {
		bit := byte(0)
		if r.Float64() < p {
			bit = 1
		}
		b.AppendBit(bit)
		nv.bits = append(nv.bits, bit)
	}
	return b.Build(), nv
}

func TestAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 511, 512, 513, 1000, 5000} {
		for _, p := range []float64{0, 0.05, 0.5, 0.95, 1} {
			v, nv := randomVector(r, n, p)
			if v.Len() != n {
				t.Fatalf("Len=%d want %d", v.Len(), n)
			}
			ones := nv.rank(1, n)
			if v.Ones() != ones || v.Zeros() != n-ones {
				t.Fatalf("n=%d p=%v Ones=%d want %d", n, p, v.Ones(), ones)
			}
			for i := 0; i < n; i++ {
				if v.Access(i) != nv.bits[i] {
					t.Fatalf("Access(%d) mismatch", i)
				}
			}
			for pos := 0; pos <= n; pos++ {
				if got, want := v.Rank1(pos), nv.rank(1, pos); got != want {
					t.Fatalf("n=%d p=%v Rank1(%d)=%d want %d", n, p, pos, got, want)
				}
				if got, want := v.Rank0(pos), nv.rank(0, pos); got != want {
					t.Fatalf("Rank0(%d)=%d want %d", pos, got, want)
				}
			}
			for idx := 0; idx < ones; idx++ {
				if got, want := v.Select1(idx), nv.sel(1, idx); got != want {
					t.Fatalf("n=%d p=%v Select1(%d)=%d want %d", n, p, idx, got, want)
				}
			}
			for idx := 0; idx < n-ones; idx++ {
				if got, want := v.Select0(idx), nv.sel(0, idx); got != want {
					t.Fatalf("n=%d p=%v Select0(%d)=%d want %d", n, p, idx, got, want)
				}
			}
		}
	}
}

func TestRankSelectInverse(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	v, _ := randomVector(r, 4096, 0.3)
	for idx := 0; idx < v.Ones(); idx++ {
		p := v.Select1(idx)
		if v.Access(p) != 1 {
			t.Fatalf("Select1(%d)=%d is not a 1", idx, p)
		}
		if v.Rank1(p) != idx {
			t.Fatalf("Rank1(Select1(%d)) = %d", idx, v.Rank1(p))
		}
	}
	for idx := 0; idx < v.Zeros(); idx++ {
		p := v.Select0(idx)
		if v.Access(p) != 0 || v.Rank0(p) != idx {
			t.Fatalf("Select0 inverse broken at %d", idx)
		}
	}
}

func TestGenericRankSelect(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	v, nv := randomVector(r, 777, 0.4)
	for _, b := range []byte{0, 1} {
		for pos := 0; pos <= 777; pos += 13 {
			if v.Rank(b, pos) != nv.rank(b, pos) {
				t.Fatalf("Rank(%d,%d)", b, pos)
			}
		}
	}
	if v.Select(1, 0) != nv.sel(1, 0) || v.Select(0, 0) != nv.sel(0, 0) {
		t.Fatal("Select generic")
	}
}

func TestAppendRun(t *testing.T) {
	b := NewBuilder(0)
	b.AppendRun(1, 70)
	b.AppendRun(0, 3)
	b.AppendRun(1, 64)
	b.AppendRun(0, 0)
	b.AppendRun(1, 1)
	v := b.Build()
	if v.Len() != 138 || v.Ones() != 135 {
		t.Fatalf("Len=%d Ones=%d", v.Len(), v.Ones())
	}
	for i := 0; i < 70; i++ {
		if v.Access(i) != 1 {
			t.Fatalf("bit %d should be 1", i)
		}
	}
	for i := 70; i < 73; i++ {
		if v.Access(i) != 0 {
			t.Fatalf("bit %d should be 0", i)
		}
	}
	if v.Access(137) != 1 {
		t.Fatal("last bit should be 1")
	}
}

func TestFromWords(t *testing.T) {
	v := FromWords([]uint64{^uint64(0), ^uint64(0)}, 70)
	if v.Len() != 70 || v.Ones() != 70 {
		t.Fatalf("FromWords: Len=%d Ones=%d", v.Len(), v.Ones())
	}
	if v.Rank1(70) != 70 || v.Select1(69) != 69 {
		t.Fatal("FromWords rank/select")
	}
}

// TestFromWordsShared: the aliasing constructor neither copies nor masks,
// and Access and Rank up to n are right whatever the words hold past n.
func TestFromWordsShared(t *testing.T) {
	words := []uint64{0xF0F0F0F0F0F0F0F0, ^uint64(0)}
	v, want := FromWordsShared(words, 70), FromWords(words, 70)
	if &v.Words()[0] != &words[0] {
		t.Fatal("FromWordsShared copied its words")
	}
	for pos := 0; pos <= 70; pos++ {
		if v.Rank1(pos) != want.Rank1(pos) || pos < 70 && v.Access(pos) != want.Access(pos) {
			t.Fatalf("position %d: rank %d, want %d", pos, v.Rank1(pos), want.Rank1(pos))
		}
	}
}

func TestPanics(t *testing.T) {
	v := FromWords([]uint64{0b101}, 3)
	for _, f := range []func(){
		func() { FromWordsShared([]uint64{0, 0}, 3) },
		func() { v.Access(-1) },
		func() { v.Access(3) },
		func() { v.Rank1(4) },
		func() { v.Rank1(-1) },
		func() { v.Select1(2) },
		func() { v.Select0(1) },
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

func TestSizeBits(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	v, _ := randomVector(r, 1<<16, 0.5)
	// Plain vector overhead must stay under 15% of raw size.
	if got := v.SizeBits(); got > (1<<16)*115/100 {
		t.Errorf("SizeBits=%d too large for %d raw bits", got, 1<<16)
	}
}

func TestQuickRankAdditive(t *testing.T) {
	// Rank1(i) + Rank0(i) == i for all i.
	f := func(seed int64, n16 uint16) bool {
		n := int(n16) % 2000
		v, _ := randomVector(rand.New(rand.NewSource(seed)), n, 0.5)
		for i := 0; i <= n; i += 7 {
			if v.Rank1(i)+v.Rank0(i) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRank1(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	v, _ := randomVector(r, 1<<20, 0.5)
	positions := make([]int, 1024)
	for i := range positions {
		positions[i] = r.Intn(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(positions[i&1023])
	}
}

func BenchmarkSelect1(b *testing.B) {
	r := rand.New(rand.NewSource(16))
	v, _ := randomVector(r, 1<<20, 0.5)
	idxs := make([]int, 1024)
	for i := range idxs {
		idxs[i] = r.Intn(v.Ones())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(idxs[i&1023])
	}
}
