package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/entropy"
	"repro/internal/seqstore/flat"
)

// buildAll constructs both pointer variants over the same byte-string
// sequence.
func buildAll(seq []string) map[string]*wtrie {
	enc := encodeSeq(seq)
	return map[string]*wtrie{
		"appendonly": &NewAppendOnlyFromBits(enc).wtrie,
		"dynamic":    &NewDynamicFromBits(enc).wtrie,
	}
}

func TestEnumerateMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	seq := randomWorkload(r, 300)
	o := flat.FromSlice(seq)
	for name, w := range buildAll(seq) {
		for _, rng := range [][2]int{{0, 300}, {0, 0}, {17, 18}, {50, 250}, {299, 300}} {
			l, rr := rng[0], rng[1]
			want := l
			w.EnumerateBits(l, rr, func(pos int, s bitstr.BitString) bool {
				if pos != want {
					t.Fatalf("%s: enumerate pos %d want %d", name, pos, want)
				}
				got, err := bitstr.DecodeString(s)
				if err != nil {
					t.Fatalf("%s: undecodable: %v", name, err)
				}
				if got != o.Access(pos) {
					t.Fatalf("%s: enumerate[%d] = %q want %q", name, pos, got, o.Access(pos))
				}
				want++
				return true
			})
			if want != rr {
				t.Fatalf("%s: enumerate visited %d want %d", name, want-l, rr-l)
			}
		}
		// Early stop.
		visits := 0
		w.EnumerateBits(0, 300, func(int, bitstr.BitString) bool {
			visits++
			return visits < 5
		})
		if visits != 5 {
			t.Fatalf("%s: early stop after %d", name, visits)
		}
	}
}

func TestDistinctInRange(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	seq := randomWorkload(r, 400)
	o := flat.FromSlice(seq)
	for name, w := range buildAll(seq) {
		for trial := 0; trial < 40; trial++ {
			l := r.Intn(len(seq) + 1)
			rr := l + r.Intn(len(seq)-l+1)
			got := w.DistinctInRange(l, rr)
			want := o.DistinctInRange(l, rr)
			if len(got) != len(want) {
				t.Fatalf("%s: [%d,%d): %d distinct want %d", name, l, rr, len(got), len(want))
			}
			var prev bitstr.BitString
			for i, d := range got {
				s, err := bitstr.DecodeString(d.Value)
				if err != nil {
					t.Fatal(err)
				}
				if want[s] != d.Count {
					t.Fatalf("%s: count of %q = %d want %d", name, s, d.Count, want[s])
				}
				if i > 0 && bitstr.Compare(prev, d.Value) >= 0 {
					t.Fatalf("%s: results not sorted", name)
				}
				prev = d.Value
			}
		}
	}
}

func TestRangeMajority(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	// Construct a sequence with forced majorities in some windows.
	var seq []string
	for i := 0; i < 50; i++ {
		seq = append(seq, "heavy")
	}
	seq = append(seq, randomWorkload(r, 60)...)
	for i := 0; i < 30; i++ {
		seq = append(seq, "heavy")
	}
	o := flat.FromSlice(seq)
	for name, w := range buildAll(seq) {
		for trial := 0; trial < 200; trial++ {
			l := r.Intn(len(seq))
			rr := l + 1 + r.Intn(len(seq)-l)
			gotS, gotOK := w.RangeMajority(l, rr)
			wantS, wantOK := o.Majority(l, rr)
			if gotOK != wantOK {
				t.Fatalf("%s: majority [%d,%d) ok=%v want %v", name, l, rr, gotOK, wantOK)
			}
			if gotOK {
				dec, _ := bitstr.DecodeString(gotS)
				if dec != wantS {
					t.Fatalf("%s: majority [%d,%d) = %q want %q", name, l, rr, dec, wantS)
				}
			}
		}
		// Empty range has no majority.
		if _, ok := w.RangeMajority(3, 3); ok {
			t.Fatalf("%s: empty range majority", name)
		}
	}
}

func TestRangeThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	seq := randomWorkload(r, 500)
	o := flat.FromSlice(seq)
	for name, w := range buildAll(seq) {
		for _, tshold := range []int{1, 2, 5, 20, 100, 1000} {
			for trial := 0; trial < 15; trial++ {
				l := r.Intn(len(seq) + 1)
				rr := l + r.Intn(len(seq)-l+1)
				got := w.RangeThreshold(l, rr, tshold)
				counts := o.DistinctInRange(l, rr)
				want := 0
				for _, c := range counts {
					if c >= tshold {
						want++
					}
				}
				if len(got) != want {
					t.Fatalf("%s: threshold %d on [%d,%d): %d results want %d", name, tshold, l, rr, len(got), want)
				}
				for _, d := range got {
					s, _ := bitstr.DecodeString(d.Value)
					if counts[s] != d.Count || d.Count < tshold {
						t.Fatalf("%s: threshold result %q count %d", name, s, d.Count)
					}
				}
			}
		}
	}
}

func TestTopKAndPrefixRange(t *testing.T) {
	r := rand.New(rand.NewSource(104))
	seq := randomWorkload(r, 400)
	o := flat.FromSlice(seq)
	for name, w := range buildAll(seq) {
		counts := o.DistinctInRange(100, 300)
		// Top-1 must be a maximal-count value.
		top := w.TopKInRange(100, 300, 1)
		if len(top) != 1 {
			t.Fatalf("%s: top-1 size %d", name, len(top))
		}
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		if top[0].Count != maxC {
			t.Fatalf("%s: top-1 count %d want %d", name, top[0].Count, maxC)
		}
		// Top-k ordering is by count descending.
		ks := w.TopKInRange(100, 300, 5)
		for i := 1; i < len(ks); i++ {
			if ks[i].Count > ks[i-1].Count {
				t.Fatalf("%s: top-k not sorted", name)
			}
		}
	}
}

func TestLemma35EntropySandwich(t *testing.T) {
	// Lemma 3.5: H0(S) <= h̃ <= (1/n)Σ|si| for the bit-string view.
	r := rand.New(rand.NewSource(105))
	check := func(seq []string) bool {
		if len(seq) == 0 {
			return true
		}
		enc := encodeSeq(seq)
		h := NewAppendOnlyFromBits(enc).AvgHeight()
		nh0 := entropy.NH0Strings(seq)
		avgLen := 0.0
		for _, s := range enc {
			avgLen += float64(s.Len())
		}
		avgLen /= float64(len(seq))
		h0 := nh0 / float64(len(seq))
		const eps = 1e-9
		return h0 <= h+eps && h <= avgLen+eps
	}
	// Deterministic workloads of varying skew.
	for trial := 0; trial < 60; trial++ {
		seq := randomWorkload(r, 50+r.Intn(400))
		if !check(seq) {
			t.Fatalf("Lemma 3.5 violated on workload trial %d", trial)
		}
	}
	// Property-based: arbitrary small alphabets.
	f := func(ids []uint8) bool {
		if len(ids) == 0 {
			return true
		}
		words := []string{"x", "yy", "zzz", "x/1", "x/2", "ww", "v", "u8"}
		seq := make([]string, len(ids))
		for i, id := range ids {
			seq[i] = words[int(id)%len(words)]
		}
		return check(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestDistinctCoversWholeRange(t *testing.T) {
	// Σ counts over DistinctInRange(l,r) must equal r-l.
	f := func(ids []uint8, l8, r8 uint8) bool {
		words := []string{"a", "b", "c/1", "c/2"}
		seq := make([]string, len(ids))
		for i, id := range ids {
			seq[i] = words[int(id)%len(words)]
		}
		if len(seq) == 0 {
			return true
		}
		d := NewDynamicFromBits(encodeSeq(seq))
		l := int(l8) % (len(seq) + 1)
		rr := l + int(r8)%(len(seq)-l+1)
		tot := 0
		for _, dr := range d.DistinctInRange(l, rr) {
			tot += dr.Count
		}
		return tot == rr-l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnumerateSortedWorkload(t *testing.T) {
	// Enumerate over a lexicographically sorted sequence revisits values
	// in order; sanity check that iterators cope with long same-value runs.
	seq := []string{}
	for i := 0; i < 100; i++ {
		seq = append(seq, "k"+string(rune('a'+i%3)))
	}
	sort.Strings(seq)
	w := buildAll(seq)["appendonly"]
	prev := ""
	w.EnumerateBits(0, len(seq), func(pos int, s bitstr.BitString) bool {
		dec, _ := bitstr.DecodeString(s)
		if dec < prev {
			t.Fatalf("order violated at %d", pos)
		}
		prev = dec
		return true
	})
}
