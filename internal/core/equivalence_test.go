package core

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
)

// TestVariantsBuildIdenticalStructures: the three variants implement the
// same Definition 3.1, so over any sequence their trie shapes, labels and
// bitvector contents must be bit-identical.
func TestVariantsBuildIdenticalStructures(t *testing.T) {
	f := func(ids []uint8) bool {
		words := []string{"a", "ab", "b", "ba", "q/x", "q/y", "zz", ""}
		seq := make([]bitstr.BitString, len(ids))
		for i, id := range ids {
			seq[i] = bitstr.EncodeString(words[int(id)%len(words)])
		}
		if len(seq) == 0 {
			return true
		}
		st := NewStaticFromBits(seq).Dump()
		ao := NewAppendOnlyFromBits(seq).Dump()
		dy := NewDynamicFromBits(seq).Dump()
		pl := NewStaticPlainFromBits(seq).Dump()
		return dumpEq(st, ao) && dumpEq(st, dy) && dumpEq(st, pl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func dumpEq(a, b *DumpNode) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Label != b.Label || a.Bits != b.Bits || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !dumpEq(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// TestDynamicInsertAnywhereEqualsRebuild: inserting elements at arbitrary
// positions must yield the same structure as building statically over the
// final sequence.
func TestDynamicInsertAnywhereEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(180))
	words := []string{"x", "y", "xy", "xz"}
	for trial := 0; trial < 40; trial++ {
		d := NewDynamic()
		var ref []bitstr.BitString
		for i := 0; i < 60; i++ {
			s := bitstr.EncodeString(words[r.Intn(len(words))])
			pos := r.Intn(len(ref) + 1)
			d.InsertBits(s, pos)
			ref = append(ref, bitstr.Empty)
			copy(ref[pos+1:], ref[pos:])
			ref[pos] = s
		}
		want := NewStaticFromBits(ref).Dump()
		if !dumpEq(d.Dump(), want) {
			t.Fatalf("trial %d: dynamic structure diverges from rebuild", trial)
		}
	}
}

// TestStaticPlainMatchesStaticQueries: the compression ablation answers
// identically (and occupies more space).
func TestStaticPlainMatchesStaticQueries(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	// Large enough that per-node RRR directory overhead is amortized and
	// the entropy win shows (skewed draw => H0 < 1 per node bit).
	seq := make([]bitstr.BitString, 30000)
	words := []string{"host/a", "host/b", "host", "h", "other/long/path"}
	for i := range seq {
		w := words[0]
		if r.Intn(10) > 6 {
			w = words[r.Intn(len(words))]
		}
		seq[i] = bitstr.EncodeString(w)
	}
	st := NewStaticFromBits(seq)
	pl := NewStaticPlainFromBits(seq)
	for i := 0; i < 500; i += 3 {
		if bitstr.Compare(st.AccessBits(i), pl.AccessBits(i)) != 0 {
			t.Fatalf("Access(%d)", i)
		}
	}
	for _, w := range words {
		s := bitstr.EncodeString(w)
		if st.RankBits(s, 400) != pl.RankBits(s, 400) {
			t.Fatalf("Rank(%q)", w)
		}
		sp, sok := st.SelectBits(s, 3)
		pp, pok := pl.SelectBits(s, 3)
		if sok != pok || sp != pp {
			t.Fatalf("Select(%q)", w)
		}
	}
	// The zipfian-ish repetition makes RRR smaller than plain storage.
	if st.SizeBits() >= pl.SizeBits() {
		t.Fatalf("RRR static %d bits should beat plain %d bits", st.SizeBits(), pl.SizeBits())
	}
	// Enumerate via the plain iterator path.
	count := 0
	pl.EnumerateBits(100, 200, func(pos int, s bitstr.BitString) bool {
		if bitstr.Compare(s, st.AccessBits(pos)) != 0 {
			t.Fatalf("plain enumerate at %d", pos)
		}
		count++
		return true
	})
	if count != 100 {
		t.Fatalf("enumerated %d", count)
	}
}

// TestConcurrentReaders: immutable variants must serve concurrent readers.
func TestConcurrentReaders(t *testing.T) {
	seq := make([]bitstr.BitString, 2000)
	r := rand.New(rand.NewSource(182))
	words := []string{"alpha", "beta", "gamma/1", "gamma/2"}
	for i := range seq {
		seq[i] = bitstr.EncodeString(words[r.Intn(len(words))])
	}
	st := NewStaticFromBits(seq)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				pos := rr.Intn(2000)
				got := st.AccessBits(pos)
				if got.Len() == 0 {
					errs <- "empty access result"
					return
				}
				s := bitstr.EncodeString(words[rr.Intn(len(words))])
				if st.RankBits(s, pos) > pos {
					errs <- "rank exceeds position"
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRangePanics pins the panic surface of the §5 operations.
func TestRangePanics(t *testing.T) {
	d := NewDynamicFromBits([]bitstr.BitString{bitstr.EncodeString("a")})
	for _, f := range []func(){
		func() { d.EnumerateBits(-1, 0, nil) },
		func() { d.EnumerateBits(0, 2, nil) },
		func() { d.DistinctInRange(1, 0) },
		func() { d.RangeMajority(0, 2) },
		func() { d.RangeThreshold(0, 1, 0) },
		func() { d.VisitBranches(0, 5, nil) },
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
