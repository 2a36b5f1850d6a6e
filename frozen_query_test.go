package wavelettrie

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// flatSeq is the model every Frozen answer is checked against: the
// sequence itself, queried by linear scan.
type flatSeq []string

func (m flatSeq) rank(match func(string) bool, pos int) int {
	c := 0
	for _, v := range m[:pos] {
		if match(v) {
			c++
		}
	}
	return c
}

func (m flatSeq) sel(match func(string) bool, idx int) (int, bool) {
	if idx < 0 {
		return 0, false
	}
	for i, v := range m {
		if match(v) {
			if idx == 0 {
				return i, true
			}
			idx--
		}
	}
	return 0, false
}

// checkFrozenAgainstFlat runs every operation of f on every key — as a
// whole value and as a prefix — against the flat model, at positions 0,
// n and a few in between.
func checkFrozenAgainstFlat(t *testing.T, f *Frozen, seq []string, keys []string) {
	t.Helper()
	m := flatSeq(seq)
	n := len(seq)
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	for i, want := range seq {
		if got := f.Access(i); got != want {
			t.Fatalf("Access(%d) = %q, want %q", i, got, want)
		}
	}
	var lo, hi string
	for i, v := range seq {
		if i == 0 || v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if gl, gh := f.Bounds(); gl != lo || gh != hi {
		t.Fatalf("Bounds = [%q, %q], want [%q, %q]", gl, gh, lo, hi)
	}
	positions := []int{0, n, n / 2, n / 3, n - 1}
	for _, k := range keys {
		exact := func(v string) bool { return v == k }
		prefixed := func(v string) bool { return strings.HasPrefix(v, k) }
		for _, pos := range positions {
			if pos < 0 {
				continue
			}
			if got, want := f.Rank(k, pos), m.rank(exact, pos); got != want {
				t.Fatalf("Rank(%q,%d) = %d, want %d", k, pos, got, want)
			}
			if got, want := f.RankPrefix(k, pos), m.rank(prefixed, pos); got != want {
				t.Fatalf("RankPrefix(%q,%d) = %d, want %d", k, pos, got, want)
			}
		}
		count, countP := m.rank(exact, n), m.rank(prefixed, n)
		if got := f.Count(k); got != count {
			t.Fatalf("Count(%q) = %d, want %d", k, got, count)
		}
		if got := f.CountPrefix(k); got != countP {
			t.Fatalf("CountPrefix(%q) = %d, want %d", k, got, countP)
		}
		if got := f.Contains(k); got != (count > 0) {
			t.Fatalf("Contains(%q) = %v, count %d", k, got, count)
		}
		for _, idx := range []int{-1, 0, count / 2, count - 1, count} {
			gp, gok := f.Select(k, idx)
			wp, wok := m.sel(exact, idx)
			if gok != wok || gp != wp {
				t.Fatalf("Select(%q,%d) = (%d,%v), want (%d,%v)", k, idx, gp, gok, wp, wok)
			}
		}
		for _, idx := range []int{-1, 0, countP / 2, countP - 1, countP} {
			gp, gok := f.SelectPrefix(k, idx)
			wp, wok := m.sel(prefixed, idx)
			if gok != wok || gp != wp {
				t.Fatalf("SelectPrefix(%q,%d) = (%d,%v), want (%d,%v)", k, idx, gp, gok, wp, wok)
			}
		}
		// Prefix enumeration, positions and values, from every kind of
		// starting index; values are asked for on every other match, so the
		// value walk both streams and re-seeks.
		for _, from := range []int{0, countP / 2, countP - 1, countP, countP + 1} {
			if from < 0 {
				continue
			}
			next := from
			f.EnumeratePrefix(k, from, func(idx, pos int, val func() string) bool {
				if wp, _ := m.sel(prefixed, next); idx != next || pos != wp {
					t.Fatalf("EnumeratePrefix(%q,%d) yields (%d,%d), want (%d,%d)", k, from, idx, pos, next, wp)
				}
				if idx%2 == 0 {
					if got := val(); got != seq[pos] {
						t.Fatalf("EnumeratePrefix(%q,%d) match %d has value %q, want %q", k, from, idx, got, seq[pos])
					}
				}
				next++
				return true
			})
			if want := max(from, countP); next != want {
				t.Fatalf("EnumeratePrefix(%q,%d) ended at match %d, want %d", k, from, next, want)
			}
		}
		stops := 0
		total := f.EnumeratePrefix(k, 0, func(int, int, func() string) bool { stops++; return stops < 2 })
		if want := min(2, countP); stops != want || total != countP {
			t.Fatalf("EnumeratePrefix(%q) ran %d callbacks after being told to stop at 2 and returned %d, with %d matches", k, stops, total, countP)
		}
	}
}

// probeKeys derives, from some stored values, keys of every relation to
// the stored set: the values, their proper prefixes, extensions, and
// one-byte changes.
func probeKeys(vals []string) []string {
	keys := []string{"", "\x00", "\xff", "absent"}
	for _, v := range vals {
		keys = append(keys, v, v+"x", v+"\x00")
		if len(v) > 0 {
			keys = append(keys, v[:len(v)/2], v[:len(v)-1])
			b := []byte(v)
			b[len(b)/2] ^= 0x10
			keys = append(keys, string(b))
		}
	}
	return keys
}

// goldenSeq is the sequence testdata/frozen_v4.golden was marshalled
// from, by the commit that introduced trie format v4: a URL log plus the
// edge shapes — the empty string, a chain of proper prefixes, and a key
// longer than the 256-byte stack buffer.
func goldenSeq() []string {
	seq := workload.URLLog(3000, 7, workload.DefaultURLConfig())
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	return append(seq, "", "a", "ab", "abc", string(long), "", "ab")
}

// TestFrozenGoldenV4 pins the on-disk format (container version 3, trie
// wire version 4): a file written when the format was introduced must
// load (validating, trusted and zero-copy), answer every query like the
// flat model, re-marshal to the same bytes, and equal what today's
// encoders produce for the same sequence.
func TestFrozenGoldenV4(t *testing.T) {
	golden, err := os.ReadFile("testdata/frozen_v4.golden")
	if err != nil {
		t.Fatal(err)
	}
	seq := goldenSeq()
	keys := probeKeys(append(workload.Distinct(seq)[:25], seq[len(seq)-7:]...))

	mapped, err := LoadFrozenMapped(append([]byte(nil), golden...), nil)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := LoadFrozenTrusted(golden)
	if err != nil {
		t.Fatal(err)
	}
	validated, err := LoadFrozen(golden)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]*Frozen{"validated": validated, "trusted": trusted, "mapped": mapped} {
		checkFrozenAgainstFlat(t, f, seq, keys)
		again, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, golden) {
			t.Fatalf("%s: re-marshalled bytes differ from the golden file", name)
		}
	}

	fresh, err := NewStatic(seq).Frozen().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, golden) {
		t.Fatal("Static.Frozen no longer marshals to the golden bytes: the wire format changed")
	}
	built, err := FreezeIterate(func(yield func(string) bool) {
		for _, v := range seq {
			if !yield(v) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed, _ := built.MarshalBinary(); !bytes.Equal(streamed, golden) {
		t.Fatal("FrozenBuilder no longer marshals to the golden bytes: the wire format changed")
	}
}

// TestFrozenQueryAllocations guards the allocation-free read path: a
// keyed query on a key of up to 256 bytes binarizes into a stack buffer
// and descends without touching the heap.
func TestFrozenQueryAllocations(t *testing.T) {
	seq := goldenSeq()
	f := NewStatic(seq).Frozen()
	n := f.Len()
	stored300 := seq[len(seq)-3] // the 300-byte value; its 256-byte prefix still fits
	keys := []string{seq[0], seq[1234], seq[1234][:9], "", "absent", strings.Repeat("k", 256), stored300[:256]}
	for _, k := range keys {
		ops := map[string]func(){
			"Rank":        func() { f.Rank(k, n/2) },
			"Count":       func() { f.Count(k) },
			"RankPrefix":  func() { f.RankPrefix(k, n/2) },
			"CountPrefix": func() { f.CountPrefix(k) },
			"Contains":    func() { f.Contains(k) },
		}
		for name, op := range ops {
			if a := testing.AllocsPerRun(50, op); a != 0 {
				t.Errorf("%s(%d-byte key) allocates %.1f times per call, want 0", name, len(k), a)
			}
		}
	}
}

// TestFrozenIterateAllocations guards the streaming read path: Iterate
// decodes every element through one scratch buffer, so what it allocates
// per element is the string it hands out — the walk's own state (slab
// chunks, label list) is a few dozen allocations for the whole sweep.
func TestFrozenIterateAllocations(t *testing.T) {
	seq := goldenSeq()
	f := NewStatic(seq).Frozen()
	n := f.Len()
	a := testing.AllocsPerRun(10, func() {
		f.Iterate(0, n, func(int, string) bool { return true })
	})
	if a > float64(n)+48 {
		t.Errorf("Iterate over %d elements allocates %.0f times, want at most one per element and 48 for the walk", n, a)
	}
	// A page of a prefix scan: positions alone allocate nothing per match.
	p := seq[0][:6]
	a = testing.AllocsPerRun(10, func() {
		f.EnumeratePrefix(p, 0, func(int, int, func() string) bool { return true })
	})
	if a > 8 {
		t.Errorf("EnumeratePrefix(%q), positions only, allocates %.0f times over %d matches, want a constant", p, a, f.CountPrefix(p))
	}
}

// FuzzFrozenQueries builds a Frozen from fuzz-supplied strings and checks
// every operation against the flat model, for keys drawn from the values
// themselves and from every way of missing them.
func FuzzFrozenQueries(f *testing.F) {
	f.Add([]byte("a\nab\nabc\n\nab\nb"))
	f.Add([]byte("host0/x/1\nhost0/x/2\nhost1/y\nhost0/x/1"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("\x00\n\x00\x00\n\xff\n\xfe\xff"))
	f.Add([]byte(strings.Repeat("long-value-", 30) + "\nshort"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		seq := strings.Split(string(data), "\n")
		if len(seq) > 64 {
			seq = seq[:64]
		}
		fz := NewStatic(seq).Frozen()
		keys := probeKeys(seq)
		if len(keys) > 160 {
			keys = keys[:160]
		}
		checkFrozenAgainstFlat(t, fz, seq, keys)
		// The loaded form answers the same (and the bytes round-trip).
		raw, err := fz.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := LoadFrozen(raw)
		if err != nil {
			t.Fatalf("own marshalling rejected: %v", err)
		}
		checkFrozenAgainstFlat(t, back, seq, keys[:min(len(keys), 24)])
		// So does the structural write path: the sequence cut in three, the
		// parts frozen (the first in place from an append-only trie, as a
		// flush does) and concatenated (as a compaction does).
		a, b := len(seq)/3, len(seq)-len(seq)/3
		live := NewAppendOnlyFrom(seq[:a])
		head, err := live.Frozen()
		if err != nil {
			t.Fatal(err)
		}
		mid, tail := NewStatic(seq[a:b]).Frozen(), NewStatic(seq[b:]).Frozen()
		merged, err := ConcatFrozen(nil, head, mid, tail)
		if err != nil {
			t.Fatal(err)
		}
		// The parts' alphabets, counted together without merging anything.
		if got, err := UnionAlphabetSize([]*Frozen{mid, tail}, []*AppendOnly{live}); err != nil || got != merged.AlphabetSize() {
			t.Fatalf("UnionAlphabetSize of the parts = %d, %v; the whole holds %d distinct strings", got, err, merged.AlphabetSize())
		}
		if mraw, err := merged.MarshalBinary(); err != nil || !bytes.Equal(mraw, raw) {
			t.Fatalf("merged parts marshal differently from the whole (err %v)", err)
		}
		checkFrozenAgainstFlat(t, merged, seq, keys[:min(len(keys), 24)])
	})
}
