package wavelettrie_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	wavelettrie "repro"
	"repro/internal/workload"
)

// testSeq is a small log with repeats, shared prefixes, an empty string
// and non-ASCII bytes — every edge the binarization has to carry.
func testSeq() []string {
	seq := workload.URLLog(300, 7, workload.DefaultURLConfig())
	seq = append(seq, "", "", "a", "ab", "ab", "abc", "\x00\xff", "\x00")
	return seq
}

// checkStringEquiv asserts that got answers the primitive operations
// identically to want over the whole sequence.
func checkStringEquiv(t *testing.T, want, got wavelettrie.StringIndex, probes []string) {
	t.Helper()
	if got.Len() != want.Len() || got.AlphabetSize() != want.AlphabetSize() {
		t.Fatalf("totals differ: n %d/%d, |Sset| %d/%d",
			got.Len(), want.Len(), got.AlphabetSize(), want.AlphabetSize())
	}
	if got.Height() != want.Height() {
		t.Fatalf("Height %d, want %d", got.Height(), want.Height())
	}
	n := want.Len()
	for pos := 0; pos < n; pos++ {
		if g, w := got.Access(pos), want.Access(pos); g != w {
			t.Fatalf("Access(%d) = %q, want %q", pos, g, w)
		}
	}
	for _, s := range probes {
		for _, pos := range []int{0, 1, n / 3, n / 2, n} {
			if g, w := got.Rank(s, pos), want.Rank(s, pos); g != w {
				t.Fatalf("Rank(%q, %d) = %d, want %d", s, pos, g, w)
			}
			if g, w := got.RankPrefix(s, pos), want.RankPrefix(s, pos); g != w {
				t.Fatalf("RankPrefix(%q, %d) = %d, want %d", s, pos, g, w)
			}
		}
		if g, w := got.Count(s), want.Count(s); g != w {
			t.Fatalf("Count(%q) = %d, want %d", s, g, w)
		}
		if g, w := got.CountPrefix(s), want.CountPrefix(s); g != w {
			t.Fatalf("CountPrefix(%q) = %d, want %d", s, g, w)
		}
		for idx := 0; idx < want.Count(s); idx++ {
			gp, gok := got.Select(s, idx)
			wp, wok := want.Select(s, idx)
			if gp != wp || gok != wok {
				t.Fatalf("Select(%q, %d) = %d,%v want %d,%v", s, idx, gp, gok, wp, wok)
			}
		}
		for _, idx := range []int{0, 2, want.CountPrefix(s) - 1, want.CountPrefix(s)} {
			gp, gok := got.SelectPrefix(s, idx)
			wp, wok := want.SelectPrefix(s, idx)
			if gp != wp || gok != wok {
				t.Fatalf("SelectPrefix(%q, %d) = %d,%v want %d,%v", s, idx, gp, gok, wp, wok)
			}
		}
	}
}

// checkRangeEquiv additionally exercises the §5 analytics.
func checkRangeEquiv(t *testing.T, want, got wavelettrie.RangeIndex) {
	t.Helper()
	n := want.Len()
	windows := [][2]int{{0, n}, {0, n / 2}, {n / 3, 2 * n / 3}, {n - 1, n}, {5, 5}}
	for _, lr := range windows {
		l, r := lr[0], lr[1]
		if !reflect.DeepEqual(got.DistinctInRange(l, r), want.DistinctInRange(l, r)) {
			t.Fatalf("DistinctInRange(%d,%d) differs", l, r)
		}
		gm, gok := got.RangeMajority(l, r)
		wm, wok := want.RangeMajority(l, r)
		if gm != wm || gok != wok {
			t.Fatalf("RangeMajority(%d,%d) = %q,%v want %q,%v", l, r, gm, gok, wm, wok)
		}
		if !reflect.DeepEqual(got.RangeThreshold(l, r, 3), want.RangeThreshold(l, r, 3)) {
			t.Fatalf("RangeThreshold(%d,%d,3) differs", l, r)
		}
		if !reflect.DeepEqual(got.TopK(l, r, 4), want.TopK(l, r, 4)) {
			t.Fatalf("TopK(%d,%d,4) differs", l, r)
		}
		if !reflect.DeepEqual(got.Slice(l, r), want.Slice(l, r)) {
			t.Fatalf("Slice(%d,%d) differs", l, r)
		}
		if !reflect.DeepEqual(got.DistinctPrefixes(l, r, 8), want.DistinctPrefixes(l, r, 8)) {
			t.Fatalf("DistinctPrefixes(%d,%d,8) differs", l, r)
		}
	}
	if got.AvgHeight() != want.AvgHeight() {
		t.Fatalf("AvgHeight %v, want %v", got.AvgHeight(), want.AvgHeight())
	}
}

func probesFor(seq []string) []string {
	probes := append([]string(nil), seq[:10]...)
	probes = append(probes, "", "a", "ab", "no-such-string", seq[0][:1])
	return probes
}

func TestRoundTripStatic(t *testing.T) {
	seq := testSeq()
	orig := wavelettrie.NewStatic(seq)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadStatic(data)
	if err != nil {
		t.Fatal(err)
	}
	checkStringEquiv(t, orig, loaded, probesFor(seq))
	checkRangeEquiv(t, orig, loaded)
}

func TestRoundTripAppendOnly(t *testing.T) {
	seq := testSeq()
	orig := wavelettrie.NewAppendOnlyFrom(seq)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadAppendOnly(data)
	if err != nil {
		t.Fatal(err)
	}
	checkStringEquiv(t, orig, loaded, probesFor(seq))
	checkRangeEquiv(t, orig, loaded)

	// Appending must resume seamlessly on the loaded index.
	orig.Append("post-snapshot")
	loaded.Append("post-snapshot")
	checkStringEquiv(t, orig, loaded, []string{"post-snapshot"})
}

func TestRoundTripAppendOnlySealedSegments(t *testing.T) {
	// Enough elements that node bitvectors cross the 2^14-bit segment
	// boundary and the RRR-sealed path is exercised.
	seq := workload.URLLog(40000, 3, workload.DefaultURLConfig())
	orig := wavelettrie.NewAppendOnlyFrom(seq)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadAppendOnly(data)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		pos := r.Intn(len(seq))
		if g, w := loaded.Access(pos), orig.Access(pos); g != w {
			t.Fatalf("Access(%d) = %q, want %q", pos, g, w)
		}
	}
	for _, s := range seq[:20] {
		if g, w := loaded.Count(s), orig.Count(s); g != w {
			t.Fatalf("Count(%q) = %d, want %d", s, g, w)
		}
	}
}

func TestRoundTripDynamic(t *testing.T) {
	seq := testSeq()
	orig := wavelettrie.NewDynamicFrom(seq)
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadDynamic(data)
	if err != nil {
		t.Fatal(err)
	}
	checkStringEquiv(t, orig, loaded, probesFor(seq))
	checkRangeEquiv(t, orig, loaded)

	// Mutations must resume on the loaded index.
	orig.Insert("mid-insert", 3)
	loaded.Insert("mid-insert", 3)
	if g, w := orig.Delete(10), loaded.Delete(10); g != w {
		t.Fatalf("Delete(10) = %q vs %q", w, g)
	}
	checkStringEquiv(t, orig, loaded, []string{"mid-insert"})
}

func TestRoundTripNumeric(t *testing.T) {
	orig := wavelettrie.NewNumeric(32, 42)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		orig.Append(uint64(r.Intn(64)))
	}
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadNumeric(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != orig.Len() || loaded.AlphabetSize() != orig.AlphabetSize() ||
		loaded.Height() != orig.Height() {
		t.Fatal("totals differ after round trip")
	}
	for pos := 0; pos < orig.Len(); pos++ {
		if g, w := loaded.Access(pos), orig.Access(pos); g != w {
			t.Fatalf("Access(%d) = %d, want %d", pos, g, w)
		}
	}
	for x := uint64(0); x < 64; x++ {
		if g, w := loaded.Rank(x, orig.Len()), orig.Rank(x, orig.Len()); g != w {
			t.Fatalf("Rank(%d) = %d, want %d", x, g, w)
		}
		gp, gok := loaded.Select(x, 2)
		wp, wok := orig.Select(x, 2)
		if gp != wp || gok != wok {
			t.Fatalf("Select(%d,2) differs", x)
		}
	}
	if !reflect.DeepEqual(loaded.DistinctInRange(10, 400), orig.DistinctInRange(10, 400)) {
		t.Fatal("DistinctInRange differs")
	}
	// The loaded tree must keep accepting mutations with the same hash.
	orig.Insert(99, 0)
	loaded.Insert(99, 0)
	if g, w := loaded.Access(0), orig.Access(0); g != w {
		t.Fatalf("post-load Insert: Access(0) = %d, want %d", g, w)
	}
}

func TestRoundTripFrozen(t *testing.T) {
	seq := testSeq()
	orig := wavelettrie.NewStatic(seq).Frozen()
	data, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := wavelettrie.LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	checkStringEquiv(t, orig, loaded, probesFor(seq))
}

func TestRoundTripEmpty(t *testing.T) {
	for name, ix := range map[string]wavelettrie.Index{
		"appendonly": wavelettrie.NewAppendOnly(),
		"dynamic":    wavelettrie.NewDynamic(),
		"static":     wavelettrie.NewStatic(nil),
		"numeric":    wavelettrie.NewNumeric(16, 1),
		"frozen":     wavelettrie.NewStatic(nil).Frozen(),
	} {
		data, err := ix.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		loaded, err := wavelettrie.Load(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if loaded.Len() != 0 || loaded.AlphabetSize() != 0 {
			t.Fatalf("%s: loaded empty index has n=%d", name, loaded.Len())
		}
	}
}

// TestLoadDispatch verifies the generic loader restores the concrete
// variant and the typed loaders reject kind mismatches.
func TestLoadDispatch(t *testing.T) {
	seq := testSeq()
	data, err := wavelettrie.NewAppendOnlyFrom(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := wavelettrie.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*wavelettrie.AppendOnly); !ok {
		t.Fatalf("Load returned %T, want *AppendOnly", ix)
	}
	if _, err := wavelettrie.LoadDynamic(data); err == nil {
		t.Fatal("LoadDynamic accepted an AppendOnly snapshot")
	}
	if _, err := wavelettrie.LoadStatic(data); err == nil {
		t.Fatal("LoadStatic accepted an AppendOnly snapshot")
	}
}

// TestLoadRejectsCorrupt checks that truncations and structured
// corruptions return errors, and arbitrary single-byte flips never
// panic.
func TestLoadRejectsCorrupt(t *testing.T) {
	seq := testSeq()
	for name, ix := range map[string]wavelettrie.Index{
		"static":     wavelettrie.NewStatic(seq),
		"appendonly": wavelettrie.NewAppendOnlyFrom(seq),
		"dynamic":    wavelettrie.NewDynamicFrom(seq),
		"frozen":     wavelettrie.NewStatic(seq).Frozen(),
	} {
		data, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, 5, 6, 7, len(data) / 2, len(data) - 1} {
			if _, err := wavelettrie.Load(data[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d bytes accepted", name, cut)
			}
		}
		if _, err := wavelettrie.Load(append(bytes.Clone(data), 0)); err == nil {
			t.Fatalf("%s: trailing garbage accepted", name)
		}
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 300; i++ {
			mut := bytes.Clone(data)
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
			ix, err := wavelettrie.Load(mut) // must not panic
			if err != nil {
				continue
			}
			exerciseLoaded(ix)
		}
	}
}

// TestLoadSurvivesEveryBitFlip flips every bit of a small snapshot of each
// string kind in turn: Load must refuse the result or return an index
// whose every position can be read. It is the exhaustive form of the
// random flips above, and the regression test for the flip they missed —
// an RRR block offset that moved set bits past a node bitvector's end, so
// that the vector held fewer ones than its class fields promised its
// children (rrr.DecodeFrom now checks block bodies). The same corruption
// in an append-only trie needs a sealed 16 384-bit segment; it is kept as
// a FuzzLoad seed under testdata/fuzz instead.
func TestLoadSurvivesEveryBitFlip(t *testing.T) {
	var seq []string
	for i := 0; i < 40; i++ {
		seq = append(seq, []string{"a", "b", "r"}[(i*i+i/3)%3])
	}
	for name, ix := range map[string]wavelettrie.Index{
		"static":     wavelettrie.NewStatic(seq),
		"appendonly": wavelettrie.NewAppendOnlyFrom(seq),
		"dynamic":    wavelettrie.NewDynamicFrom(seq),
		"frozen":     wavelettrie.NewStatic(seq).Frozen(),
	} {
		data, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < 8*len(data); bit++ {
			mut := bytes.Clone(data)
			mut[bit/8] ^= 1 << uint(bit%8)
			loaded, err := wavelettrie.Load(mut)
			if err != nil || loaded.Len() > 1<<16 {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: flipping bit %d of byte %d loads an index that panics: %v", name, bit%8, bit/8, p)
					}
				}()
				si := loaded.(wavelettrie.StringIndex)
				for pos := 0; pos < si.Len(); pos++ {
					si.Access(pos)
				}
				exerciseLoaded(loaded)
			}()
		}
	}
}

// exerciseLoaded drives the query surface of a successfully loaded
// index; a Load that accepted corrupt input must still never panic.
func exerciseLoaded(ix wavelettrie.Index) {
	n := ix.Len()
	ix.AlphabetSize()
	ix.Height()
	ix.SizeBits()
	if si, ok := ix.(wavelettrie.StringIndex); ok && n > 0 {
		for _, pos := range []int{0, n / 2, n - 1} {
			s := si.Access(pos)
			si.Rank(s, n)
			si.Select(s, 0)
			si.RankPrefix(s, n)
			si.SelectPrefix(s, 1)
			si.Count(s)
			si.CountPrefix(s)
		}
		si.Rank("probe", n)
		si.SelectPrefix("p", 0)
	}
	if ri, ok := ix.(wavelettrie.RangeIndex); ok && n > 0 {
		ri.DistinctInRange(0, n)
		ri.RangeMajority(0, n)
		ri.RangeThreshold(0, n, 2)
		ri.TopK(0, n, 3)
		ri.Slice(0, min(n, 16))
		ri.DistinctPrefixes(0, n, 4)
		ri.AvgHeight()
	}
	if nq, ok := ix.(*wavelettrie.Numeric); ok && n > 0 {
		x := nq.Access(n - 1)
		nq.Rank(x, n)
		nq.Select(x, 0)
		nq.DistinctInRange(0, n)
		nq.RangeMajority(0, n)
	}
}

// TestLoadRejectsDeepChainBomb feeds Load a crafted snapshot whose
// patricia stream nests one million internal nodes (the stack-overflow
// shape: constant bytes per level, no leaves). The decoder walks it
// with a heap stack, so it must return an error — not exhaust the
// goroutine stack and kill the process.
func TestLoadRejectsDeepChainBomb(t *testing.T) {
	const levels = 1_000_000
	buf := make([]byte, 0, 16+levels*33)
	le64 := func(v uint64) {
		for k := 0; k < 8; k++ {
			buf = append(buf, byte(v>>(8*k)))
		}
	}
	buf = append(buf, 0x54, 0x4c, 0x56, 0x57) // magic "WVLT" little-endian
	buf = append(buf, 1, 0)                   // version
	buf = append(buf, 3)                      // kind: Dynamic
	le64(1)                                   // n
	le64(1)                                   // trie size (leaf count)
	for i := 0; i < levels; i++ {
		le64(0)              // label bits
		le64(0)              // label words
		buf = append(buf, 1) // internal flag
		// A minimal valid dynbv payload (γ stream "1" = empty vector), so
		// the decoder keeps descending instead of failing at level one.
		le64(1) // RLE stream bits
		le64(1) // RLE stream words
		le64(1) // the stream itself
	}
	if _, err := wavelettrie.Load(buf); err == nil {
		t.Fatal("deep-chain bomb accepted")
	}
}

func FuzzLoad(f *testing.F) {
	seq := testSeq()[:40]
	addSeed := func(ix wavelettrie.Index) {
		data, err := ix.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	addSeed(wavelettrie.NewStatic(seq))
	addSeed(wavelettrie.NewAppendOnlyFrom(seq))
	addSeed(wavelettrie.NewDynamicFrom(seq))
	addSeed(wavelettrie.NewStatic(seq).Frozen())
	num := wavelettrie.NewNumeric(16, 3)
	for i := 0; i < 50; i++ {
		num.Append(uint64(i % 7))
	}
	addSeed(num)
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x4c, 0x56, 0x57, 1, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := wavelettrie.Load(data)
		if err != nil {
			return
		}
		if ix.Len() > 1<<30 {
			// A snapshot can legitimately describe a huge virtual run;
			// skip the full exercise to bound fuzz iteration cost.
			return
		}
		exerciseLoaded(ix)
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Example of the snapshot lifecycle used in doc.go.
func ExampleLoadAppendOnly() {
	wt := wavelettrie.NewAppendOnly()
	for _, u := range []string{"a/1", "a/2", "a/1", "b/1"} {
		wt.Append(u)
	}
	snap, _ := wt.MarshalBinary() // checkpoint: ship snap to disk or peers
	reopened, _ := wavelettrie.LoadAppendOnly(snap)
	reopened.Append("b/2") // resume appending
	fmt.Println(reopened.Len(), reopened.CountPrefix("a/"))
	// Output: 5 3
}
