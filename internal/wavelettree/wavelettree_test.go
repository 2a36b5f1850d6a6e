package wavelettree

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/seqstore/flat"
)

// abracadabra splits into single-character strings.
func abracadabra() []string {
	return strings.Split("abracadabra", "")
}

func TestFigure1(t *testing.T) {
	// Figure 1 of the paper: the Wavelet Tree of "abracadabra" over
	// {a,b,c,d,r}: root β=00101010010 splitting {a,b}|{c,d,r}; left child
	// β=0100010 over abaaaba; right child β=1011 over rcdr with child
	// β=101 over rdr.
	tr := New(abracadabra())
	want := &DumpNode{
		Symbols: "abcdr", Bits: "00101010010",
		Kids: []*DumpNode{
			{
				Symbols: "ab", Bits: "0100010",
				Kids: []*DumpNode{
					{Symbols: "a"},
					{Symbols: "b"},
				},
			},
			{
				Symbols: "cdr", Bits: "1011",
				Kids: []*DumpNode{
					{Symbols: "c"},
					{
						Symbols: "dr", Bits: "101",
						Kids: []*DumpNode{
							{Symbols: "d"},
							{Symbols: "r"},
						},
					},
				},
			},
		},
	}
	var eq func(a, b *DumpNode) bool
	eq = func(a, b *DumpNode) bool {
		if (a == nil) != (b == nil) {
			return false
		}
		if a == nil {
			return true
		}
		if a.Symbols != b.Symbols || a.Bits != b.Bits || len(a.Kids) != len(b.Kids) {
			return false
		}
		for i := range a.Kids {
			if !eq(a.Kids[i], b.Kids[i]) {
				return false
			}
		}
		return true
	}
	if got := tr.Dump(); !eq(got, want) {
		t.Fatalf("Wavelet Tree does not match Figure 1:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(110))
	pool := []string{"a", "ab", "abc", "b", "ba", "q/1", "q/2", "q/33", "zz"}
	seq := make([]string, 600)
	for i := range seq {
		seq[i] = pool[r.Intn(len(pool))]
	}
	tr := New(seq)
	o := flat.FromSlice(seq)
	if tr.n != 600 || len(tr.dict) != len(pool) {
		t.Fatalf("Len=%d sigma=%d", tr.n, len(tr.dict))
	}
	for i := 0; i < 600; i++ {
		if tr.Access(i) != o.Access(i) {
			t.Fatalf("Access(%d)", i)
		}
	}
	probes := append(append([]string{}, pool...), "", "absent", "q", "q/")
	for _, p := range probes {
		for trial := 0; trial < 10; trial++ {
			pos := r.Intn(601)
			if got, want := tr.Rank(p, pos), o.Rank(p, pos); got != want {
				t.Fatalf("Rank(%q,%d)=%d want %d", p, pos, got, want)
			}
			if got, want := tr.RankPrefix(p, pos), o.RankPrefix(p, pos); got != want {
				t.Fatalf("RankPrefix(%q,%d)=%d want %d", p, pos, got, want)
			}
		}
		total := o.Rank(p, 600)
		for idx := 0; idx <= total; idx += 1 + total/5 {
			gotPos, gotOK := tr.Select(p, idx)
			wantPos, wantOK := o.Select(p, idx)
			if gotOK != wantOK || (gotOK && gotPos != wantPos) {
				t.Fatalf("Select(%q,%d)=(%d,%v) want (%d,%v)", p, idx, gotPos, gotOK, wantPos, wantOK)
			}
		}
		totalP := o.RankPrefix(p, 600)
		for idx := 0; idx <= totalP; idx += 1 + totalP/4 {
			gotPos, gotOK := tr.SelectPrefixScan(p, idx)
			wantPos, wantOK := o.SelectPrefix(p, idx)
			if gotOK != wantOK || (gotOK && gotPos != wantPos) {
				t.Fatalf("SelectPrefixScan(%q,%d)=(%d,%v) want (%d,%v)", p, idx, gotPos, gotOK, wantPos, wantOK)
			}
		}
	}
}

func TestRangeCount(t *testing.T) {
	seq := abracadabra()
	tr := New(seq)
	// Symbols: a=0 b=1 c=2 d=3 r=4.
	cases := []struct {
		l, r, sLo, sHi, want int
	}{
		{0, 11, 0, 5, 11}, // everything
		{0, 11, 0, 1, 5},  // all a's
		{0, 11, 4, 5, 2},  // all r's
		{0, 5, 0, 2, 4},   // abra + c? positions 0..4 = a,b,r,a,c → a,b in [0,2): a,b,a = 3... recompute below
		{3, 3, 0, 5, 0},   // empty range
	}
	// Fix case 4 by brute force.
	brute := func(l, r, sLo, sHi int) int {
		c := 0
		for i := l; i < r; i++ {
			id := strings.Index("abcdr", seq[i])
			if id >= sLo && id < sHi {
				c++
			}
		}
		return c
	}
	for i, c := range cases {
		want := brute(c.l, c.r, c.sLo, c.sHi)
		if got := tr.RangeCount(c.l, c.r, c.sLo, c.sHi); got != want {
			t.Errorf("case %d: RangeCount=%d want %d", i, got, want)
		}
	}
	// Exhaustive small sweep.
	for l := 0; l <= 11; l++ {
		for r := l; r <= 11; r++ {
			for sLo := 0; sLo <= 5; sLo++ {
				for sHi := sLo; sHi <= 5; sHi++ {
					if got, want := tr.RangeCount(l, r, sLo, sHi), brute(l, r, sLo, sHi); got != want {
						t.Fatalf("RangeCount(%d,%d,%d,%d)=%d want %d", l, r, sLo, sHi, got, want)
					}
				}
			}
		}
	}
}

func TestRebuildOnUnseenValue(t *testing.T) {
	tr := New([]string{"x", "y", "x"})
	if tr.Contains("z") {
		t.Fatal("z should be unseen")
	}
	tr2 := tr.Rebuild([]string{"z", "x"})
	if tr2.n != 5 || len(tr2.dict) != 3 {
		t.Fatalf("rebuilt Len=%d sigma=%d", tr2.n, len(tr2.dict))
	}
	if tr2.Access(3) != "z" || tr2.Access(0) != "x" {
		t.Fatal("rebuilt content wrong")
	}
	// Original unchanged.
	if tr.n != 3 {
		t.Fatal("original mutated")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	e := New(nil)
	if e.n != 0 || len(e.dict) != 0 {
		t.Fatal("empty")
	}
	if e.Rank("x", 0) != 0 || e.RankPrefix("x", 0) != 0 {
		t.Fatal("empty rank")
	}
	s := New([]string{"solo", "solo"})
	if s.Access(1) != "solo" || s.Rank("solo", 2) != 2 {
		t.Fatal("single-symbol tree")
	}
	if p, ok := s.Select("solo", 1); !ok || p != 1 {
		t.Fatal("single-symbol select")
	}
}

func BenchmarkAccess(b *testing.B) {
	r := rand.New(rand.NewSource(111))
	pool := make([]string, 256)
	for i := range pool {
		pool[i] = strings.Repeat(string(rune('a'+i%26)), i%7+1)
	}
	seq := make([]string, 1<<16)
	for i := range seq {
		seq[i] = pool[r.Intn(len(pool))]
	}
	tr := New(seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Access(i & (1<<16 - 1))
	}
}
