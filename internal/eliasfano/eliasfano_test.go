package eliasfano

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMonotoneRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, k := range []int{0, 1, 2, 10, 1000} {
		for _, u := range []uint64{1, 2, 100, 1 << 20, 1 << 40} {
			vals := make([]uint64, k)
			for i := range vals {
				vals[i] = uint64(r.Int63n(int64(u)))
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			m := FromSorted(vals, u)
			if m.Len() != k {
				t.Fatalf("Len=%d want %d", m.Len(), k)
			}
			it := m.Iter()
			for i, v := range vals {
				if got := m.Get(i); got != v {
					t.Fatalf("k=%d u=%d Get(%d)=%d want %d", k, u, i, got, v)
				}
				if got, ok := it.Next(); !ok || got != v {
					t.Fatalf("k=%d u=%d Iter value %d = %d (ok=%v) want %d", k, u, i, got, ok, v)
				}
			}
			if _, ok := it.Next(); ok {
				t.Fatalf("k=%d u=%d Iter runs past the end", k, u)
			}
		}
	}
}

func TestMonotoneDuplicatesAndEdges(t *testing.T) {
	vals := []uint64{0, 0, 0, 5, 5, 99, 99, 99}
	m := FromSorted(vals, 100)
	for i, v := range vals {
		if m.Get(i) != v {
			t.Fatalf("Get(%d)=%d want %d", i, m.Get(i), v)
		}
	}
}

// TestPairAndRange checks the one-select pair access against Get on the
// shapes the trie directories take: runs of duplicate offsets (empty
// labels), lowBits == 0 (universe <= count), sparse values that put
// many zeros between two set bits of the high half, and enough values to
// cross several select hints.
func TestPairAndRange(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := map[string][]uint64{
		"duplicates": {0, 0, 0, 5, 5, 5, 5, 99, 99, 100, 100},
		"dense":      {0, 1, 2, 3, 3, 3, 4, 5, 6, 7},
		"sparse":     {3, 1 << 30, 1<<30 + 1, 1 << 39, 1<<40 - 1},
	}
	long := make([]uint64, 3000)
	for i := 1; i < len(long); i++ {
		long[i] = long[i-1] + uint64(r.Intn(3)) // many duplicates, lowBits 0 or 1
	}
	cases["long"] = long
	for name, vals := range cases {
		m := FromSorted(vals, vals[len(vals)-1]+1)
		if (name == "dense" || name == "long") && m.lowBits != 0 {
			t.Fatalf("%s: lowBits=%d, want the lowBits == 0 shape", name, m.lowBits)
		}
		for i := 0; i+1 < len(vals); i++ {
			if a, b := m.Pair(i); a != vals[i] || b != vals[i+1] {
				t.Fatalf("%s: Pair(%d) = (%d,%d), want (%d,%d)", name, i, a, b, vals[i], vals[i+1])
			}
		}
	}

	// PartialSum.Range over lengths with empty items.
	lens := make([]int, 2000)
	for i := range lens {
		if r.Intn(3) > 0 {
			lens[i] = r.Intn(40)
		}
	}
	p := NewPartialSum(lens)
	off := uint64(0)
	for i, l := range lens {
		if a, b := p.Range(i); a != off || b != off+uint64(l) {
			t.Fatalf("Range(%d) = [%d,%d), want [%d,%d)", i, a, b, off, off+uint64(l))
		}
		if p.Length(i) != l {
			t.Fatalf("Length(%d) = %d, want %d", i, p.Length(i), l)
		}
		off += uint64(l)
	}
	for _, bad := range []int{-1, len(lens)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Range(%d) did not panic", bad)
				}
			}()
			p.Range(bad)
		}()
	}
}

func TestPredecessor(t *testing.T) {
	vals := []uint64{2, 2, 5, 9, 9, 40}
	m := FromSorted(vals, 50)
	cases := []struct {
		x    uint64
		want int
	}{{0, -1}, {1, -1}, {2, 1}, {3, 1}, {5, 2}, {8, 2}, {9, 4}, {39, 4}, {40, 5}, {49, 5}}
	for _, c := range cases {
		if got := m.Predecessor(c.x); got != c.want {
			t.Errorf("Predecessor(%d)=%d want %d", c.x, got, c.want)
		}
	}
}

func TestMonotonePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { FromSorted([]uint64{5, 3}, 10) },
		func() { FromSorted([]uint64{10}, 10) },
		func() { FromSorted([]uint64{1}, 10).Get(1) },
		func() { FromSorted([]uint64{1}, 10).Get(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestPartialSum(t *testing.T) {
	lengths := []int{3, 0, 7, 1, 0, 0, 12}
	p := NewPartialSum(lengths)
	if p.Count() != len(lengths) {
		t.Fatalf("Count=%d", p.Count())
	}
	if p.Total() != 23 {
		t.Fatalf("Total=%d", p.Total())
	}
	wantOffsets := []uint64{0, 3, 3, 10, 11, 11, 11, 23}
	for i, w := range wantOffsets {
		if got := p.Offset(i); got != w {
			t.Errorf("Offset(%d)=%d want %d", i, got, w)
		}
	}
	for i, l := range lengths {
		if got := p.Length(i); got != l {
			t.Errorf("Length(%d)=%d want %d", i, got, l)
		}
	}
	// Find: position -> containing item (zero-length items never contain).
	wantFind := map[uint64]int{0: 0, 2: 0, 3: 2, 9: 2, 10: 3, 11: 6, 22: 6}
	for x, w := range wantFind {
		if got := p.Find(x); got != w {
			t.Errorf("Find(%d)=%d want %d", x, got, w)
		}
	}
}

func TestPartialSumFindConsistent(t *testing.T) {
	f := func(raw []uint8) bool {
		lengths := make([]int, len(raw))
		for i, v := range raw {
			lengths[i] = int(v) % 20
		}
		p := NewPartialSum(lengths)
		if p.Total() == 0 {
			return true
		}
		for x := uint64(0); x < p.Total(); x += 3 {
			i := p.Find(x)
			if !(p.Offset(i) <= x && x < p.Offset(i+1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpaceIsCompact(t *testing.T) {
	// k values over universe u should take about k*(2 + log2(u/k)) bits.
	r := rand.New(rand.NewSource(41))
	k := 1 << 14
	u := uint64(1) << 30
	vals := make([]uint64, k)
	for i := range vals {
		vals[i] = uint64(r.Int63n(int64(u)))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	m := FromSorted(vals, u)
	perItem := float64(m.SizeBits()) / float64(k)
	// log2(u/k) = 16; allow generous slack for the select directory.
	if perItem > 22 {
		t.Errorf("Elias-Fano uses %.1f bits/item, want <= 22", perItem)
	}
	for i := 0; i < k; i += 97 {
		if m.Get(i) != vals[i] {
			t.Fatalf("Get(%d) wrong", i)
		}
	}
}

func BenchmarkGet(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	k := 1 << 16
	vals := make([]uint64, k)
	for i := range vals {
		vals[i] = uint64(r.Int63n(1 << 30))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	m := FromSorted(vals, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(i & (k - 1))
	}
}
