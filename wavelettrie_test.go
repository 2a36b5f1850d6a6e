package wavelettrie

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/seqstore/flat"
	"repro/internal/workload"
)

func TestPublicAPIAgainstOracle(t *testing.T) {
	seq := workload.URLLog(400, 1, workload.DefaultURLConfig())
	o := flat.FromSlice(seq)
	r := rand.New(rand.NewSource(140))
	apis := map[string]interface {
		Len() int
		Access(int) string
		Rank(string, int) int
		Select(string, int) (int, bool)
		RankPrefix(string, int) int
		SelectPrefix(string, int) (int, bool)
		Count(string) int
		CountPrefix(string) int
	}{
		"static":     NewStatic(seq),
		"appendonly": NewAppendOnlyFrom(seq),
		"dynamic":    NewDynamicFrom(seq),
	}
	probes := append(workload.Distinct(seq)[:8],
		"host00.example", "host00", "absent", "", "host01.example/a0")
	for name, w := range apis {
		if w.Len() != len(seq) {
			t.Fatalf("%s: Len", name)
		}
		for i := 0; i < len(seq); i += 3 {
			if w.Access(i) != o.Access(i) {
				t.Fatalf("%s: Access(%d)", name, i)
			}
		}
		for _, p := range probes {
			pos := r.Intn(len(seq) + 1)
			if got, want := w.Rank(p, pos), o.Rank(p, pos); got != want {
				t.Fatalf("%s: Rank(%q,%d)=%d want %d", name, p, pos, got, want)
			}
			if got, want := w.RankPrefix(p, pos), o.RankPrefix(p, pos); got != want {
				t.Fatalf("%s: RankPrefix(%q,%d)=%d want %d", name, p, pos, got, want)
			}
			if got, want := w.Count(p), o.Rank(p, len(seq)); got != want {
				t.Fatalf("%s: Count(%q)=%d want %d", name, p, got, want)
			}
			if got, want := w.CountPrefix(p), o.RankPrefix(p, len(seq)); got != want {
				t.Fatalf("%s: CountPrefix(%q)=%d want %d", name, p, got, want)
			}
			total := o.Rank(p, len(seq))
			for idx := 0; idx <= total; idx += 1 + total/4 {
				gp, gok := w.Select(p, idx)
				wp, wok := o.Select(p, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("%s: Select(%q,%d)", name, p, idx)
				}
			}
			totalP := o.RankPrefix(p, len(seq))
			for idx := 0; idx <= totalP; idx += 1 + totalP/4 {
				gp, gok := w.SelectPrefix(p, idx)
				wp, wok := o.SelectPrefix(p, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("%s: SelectPrefix(%q,%d)=(%d,%v) want (%d,%v)", name, p, idx, gp, gok, wp, wok)
				}
			}
		}
	}
}

func TestDynamicLifecycle(t *testing.T) {
	d := NewDynamic()
	d.Append("b")
	d.Insert("a", 0)
	d.Insert("c", 2)
	d.Insert("b", 1)
	// Sequence: a b b c
	if got := d.Slice(0, 4); got[0] != "a" || got[1] != "b" || got[2] != "b" || got[3] != "c" {
		t.Fatalf("Slice: %v", got)
	}
	if s := d.Delete(2); s != "b" {
		t.Fatalf("Delete(2)=%q", s)
	}
	if d.Len() != 3 || d.AlphabetSize() != 3 {
		t.Fatalf("Len=%d sigma=%d", d.Len(), d.AlphabetSize())
	}
	if s := d.Delete(2); s != "c" {
		t.Fatalf("Delete(2)=%q", s)
	}
	if d.AlphabetSize() != 2 {
		t.Fatalf("alphabet should shrink, got %d", d.AlphabetSize())
	}
}

// TestRangeAnalytics is the differential test of the §5 surface: on
// AppendOnly and Dynamic (the pointer tries) and Frozen (the succinct one,
// built, reloaded by LoadFrozen and by LoadFrozenMapped), all served by
// the one kernel, Enumerate, Slice, DistinctInRange,
// RangeMajority, RangeThreshold, TopK and DistinctPrefixes answer as the
// flat oracle does — on empty, full and random windows, and on windows
// inside a run long enough to hold a majority.
func TestRangeAnalytics(t *testing.T) {
	r := rand.New(rand.NewSource(141))
	seq := workload.URLLog(400, 5, workload.DefaultURLConfig())
	for i := 0; i < 40; i++ {
		seq = append(seq, []string{"a", "ab", "h", "host", ""}[r.Intn(5)])
	}
	for i := 0; i < 60; i++ {
		seq = append(seq, "heavy")
		if i%3 == 0 {
			seq = append(seq, workload.Distinct(seq)[r.Intn(20)])
		}
	}
	n := len(seq)
	o := flat.FromSlice(seq)
	windows := [][2]int{{0, 0}, {n, n}, {n / 2, n / 2}, {0, n}, {n - 80, n}, {n - 50, n - 10}}
	for len(windows) < 40 {
		l := r.Intn(n + 1)
		windows = append(windows, [2]int{l, l + r.Intn(n-l+1)})
	}
	frozen := NewStatic(seq)
	data, err := frozen.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFrozenMapped(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]RangeIndex{
		"appendonly":    NewAppendOnlyFrom(seq),
		"dynamic":       NewDynamicFrom(seq),
		"frozen":        frozen,
		"frozen.loaded": loaded,
		"frozen.mapped": mapped,
	} {
		for _, lr := range windows {
			l, rr := lr[0], lr[1]
			at := fmt.Sprintf("%s [%d,%d)", name, l, rr)
			var got []string
			w.Enumerate(l, rr, func(pos int, s string) bool {
				if pos != l+len(got) {
					t.Fatalf("%s: Enumerate yields position %d after %d values", at, pos, len(got))
				}
				got = append(got, s)
				return true
			})
			if want := seq[l:rr]; !slices.Equal(got, want) || !slices.Equal(w.Slice(l, rr), want) {
				t.Fatalf("%s: Enumerate/Slice differ from the sequence", at)
			}
			counts := o.DistinctInRange(l, rr)
			distinct := make([]Distinct, 0, len(counts))
			for v, c := range counts {
				distinct = append(distinct, Distinct{Value: v, Count: c})
			}
			sort.Slice(distinct, func(i, j int) bool { return distinct[i].Value < distinct[j].Value })
			if g := w.DistinctInRange(l, rr); !slices.Equal(g, distinct) {
				t.Fatalf("%s: DistinctInRange = %v, want %v", at, g, distinct)
			}
			gm, gok := w.RangeMajority(l, rr)
			if wm, wok := o.Majority(l, rr); gm != wm || gok != wok {
				t.Fatalf("%s: RangeMajority = %q,%v, want %q,%v", at, gm, gok, wm, wok)
			}
			for _, th := range []int{1, 2, 7, n + 1} {
				var want []Distinct
				for _, d := range distinct {
					if d.Count >= th {
						want = append(want, d)
					}
				}
				if g := w.RangeThreshold(l, rr, th); !slices.Equal(g, want) {
					t.Fatalf("%s: RangeThreshold(%d) = %v, want %v", at, th, g, want)
				}
			}
			byCount := append([]Distinct(nil), distinct...)
			sort.SliceStable(byCount, func(i, j int) bool { return byCount[i].Count > byCount[j].Count })
			for _, k := range []int{0, 1, 3, n + 1} {
				if g, want := w.TopK(l, rr, k), byCount[:min(k, len(byCount))]; !slices.Equal(g, want) {
					t.Fatalf("%s: TopK(%d) = %v, want %v", at, k, g, want)
				}
			}
			for _, k := range []int{0, 1, 4, 14, 100} {
				if g, want := w.DistinctPrefixes(l, rr, k), refPrefixGroups(seq, l, rr, k); !slices.Equal(g, want) {
					t.Fatalf("%s: DistinctPrefixes(%d) = %v, want %v", at, k, g, want)
				}
			}
		}
	}
}

// TestConcurrentReaders: a Frozen serves concurrent readers — the point
// queries and the §5 kernel alike — with no synchronization.
func TestConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(182))
	words := []string{"alpha", "beta", "gamma/1", "gamma/2"}
	seq := make([]string, 2000)
	for i := range seq {
		seq[i] = words[r.Intn(len(words))]
	}
	st := NewStatic(seq)
	o := flat.FromSlice(seq)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				pos := rr.Intn(len(seq))
				s := words[rr.Intn(len(words))]
				switch {
				case st.Access(pos) != seq[pos]:
					errs <- fmt.Sprintf("Access(%d)", pos)
				case st.Rank(s, pos) != o.Rank(s, pos):
					errs <- fmt.Sprintf("Rank(%q, %d)", s, pos)
				case len(st.DistinctInRange(pos/2, pos+1)) != len(o.DistinctInRange(pos/2, pos+1)):
					errs <- fmt.Sprintf("DistinctInRange(%d, %d)", pos/2, pos+1)
				default:
					continue
				}
				return
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestBinaryContent(t *testing.T) {
	// Strings with NUL and 0xFF bytes must work (the binarization is
	// byte-transparent).
	seq := []string{"\x00", "\x00\xff", "a\x00b", "", "\xff"}
	d := NewDynamicFrom(seq)
	for i, s := range seq {
		if d.Access(i) != s {
			t.Fatalf("Access(%d) mismatch for binary content", i)
		}
	}
	if d.Count("\x00") != 1 || d.CountPrefix("\x00") != 2 {
		t.Fatal("binary prefix counting broken")
	}
}

func TestSpaceAccessors(t *testing.T) {
	seq := workload.ZipfStrings(5000, 64, 1.4, 2)
	st := NewStatic(seq)
	if st.SizeBits() <= 0 {
		t.Fatalf("SizeBits %d, want a positive size", st.SizeBits())
	}
	if st.AvgHeight() <= 0 || st.Height() < int(st.AvgHeight()) {
		t.Fatal("height accessors inconsistent")
	}
	d := NewDynamicFrom(seq)
	if d.EncodedBitvectorBits() <= 0 || d.SizeBits() <= d.EncodedBitvectorBits() {
		t.Fatal("dynamic size accessors inconsistent")
	}
}

func TestNumericPublic(t *testing.T) {
	nq := NewNumeric(64, 11)
	vals := workload.NumericColumn(800, 32, 3)
	for _, v := range vals {
		nq.Append(v)
	}
	if nq.Len() != 800 {
		t.Fatal("Len")
	}
	for i := 0; i < 800; i += 7 {
		if nq.Access(i) != vals[i] {
			t.Fatalf("Access(%d)", i)
		}
	}
	x := vals[0]
	count := 0
	for _, v := range vals {
		if v == x {
			count++
		}
	}
	if nq.Rank(x, 800) != count {
		t.Fatal("Rank")
	}
	if pos, ok := nq.Select(x, count-1); !ok || vals[pos] != x {
		t.Fatal("Select")
	}
	if nq.Height() > 64 {
		t.Fatal("height exceeds universe")
	}
	got := nq.Delete(0)
	if got != vals[0] || nq.Len() != 799 {
		t.Fatal("Delete")
	}
}

// TestAppendOnlyEnumerateAllocations guards the pointer trie's streaming
// read path — §5's sequential access, which wtbench q5 reproduces:
// Enumerate decodes every
// element through one scratch builder into the string it hands out, and
// keeps its node cursors in slab chunks of 32 — never a builder and a copy
// of the bits per element, nor an allocation per node it opens.
func TestAppendOnlyEnumerateAllocations(t *testing.T) {
	seq := workload.URLLog(1000, 1, workload.DefaultURLConfig())
	a := NewAppendOnlyFrom(seq)
	n := a.Len()
	allocs := testing.AllocsPerRun(10, func() {
		a.Enumerate(0, n, func(int, string) bool { return true })
	})
	t.Logf("Enumerate over %d elements (%d distinct) allocates %.0f times", n, a.AlphabetSize(), allocs)
	if allocs > float64(n)+64 {
		t.Errorf("Enumerate over %d elements allocates %.0f times, want at most one per element and 64 for the walk", n, allocs)
	}
}

// TestDynamicEnumerateAllocations is the same guard on the fully-dynamic
// trie: its cursors over the run trees are values, handed out from the
// walk's slab with their node stacks in place, so opening a node costs no
// allocation of its own.
func TestDynamicEnumerateAllocations(t *testing.T) {
	seq := workload.URLLog(1000, 1, workload.DefaultURLConfig())
	d := NewDynamicFrom(seq)
	n := d.Len()
	allocs := testing.AllocsPerRun(10, func() {
		d.Enumerate(0, n, func(int, string) bool { return true })
	})
	t.Logf("Enumerate over %d elements (%d distinct) allocates %.0f times", n, d.AlphabetSize(), allocs)
	if allocs > float64(n)+64 {
		t.Errorf("Enumerate over %d elements allocates %.0f times, want at most one per element and 64 for the walk", n, allocs)
	}
}
