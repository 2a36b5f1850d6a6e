package succinct

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/workload"
)

// TestEnumerateMatchesAccess drives the streaming enumerator against
// per-position AccessBits over whole tries, subranges and early stops.
func TestEnumerateMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 50, 2000} {
		seq := workload.URLLog(n, 5, workload.DefaultURLConfig())
		fz := freezeOf(seq)

		// Full sweep.
		count := 0
		fz.EnumerateBits(0, n, func(pos int, s bitstr.BitString) bool {
			if pos != count {
				t.Fatalf("n=%d: positions out of order: got %d, want %d", n, pos, count)
			}
			if bitstr.Compare(s, fz.AccessBits(pos)) != 0 {
				t.Fatalf("n=%d: Enumerate(%d) differs from Access", n, pos)
			}
			count++
			return true
		})
		if count != n {
			t.Fatalf("n=%d: enumerated %d elements", n, count)
		}

		// Random subranges, each a page-at-a-time extraction of its own.
		for trial := 0; trial < 8; trial++ {
			l := r.Intn(n + 1)
			rr := l + r.Intn(n-l+1)
			next := l
			fz.EnumerateBits(l, rr, func(pos int, s bitstr.BitString) bool {
				if pos != next {
					t.Fatalf("n=%d: EnumerateBits(%d,%d) yields %d, want %d", n, l, rr, pos, next)
				}
				if bitstr.Compare(s, fz.AccessBits(pos)) != 0 {
					t.Fatalf("n=%d: EnumerateBits(%d,%d) differs from Access at %d", n, l, rr, pos)
				}
				next++
				return true
			})
			if next != rr {
				t.Fatalf("n=%d: EnumerateBits(%d,%d) ended at %d", n, l, rr, next)
			}
		}

		// Early stop.
		seen := 0
		fz.EnumerateBits(0, n, func(int, bitstr.BitString) bool {
			seen++
			return seen < 3
		})
		if want := min(3, n); seen != want {
			t.Fatalf("n=%d: early stop saw %d, want %d", n, seen, want)
		}
	}
}

// TestEnumerateEmpty covers the empty trie and empty ranges.
func TestEnumerateEmpty(t *testing.T) {
	fz := freezeOf(nil)
	fz.EnumerateBits(0, 0, func(int, bitstr.BitString) bool {
		t.Fatal("enumerated an element of the empty trie")
		return false
	})
	if fz.Iter(0, 0).Valid() {
		t.Fatal("empty iterator is Valid")
	}

	seq := workload.URLLog(10, 3, workload.DefaultURLConfig())
	nz := freezeOf(seq)
	nz.EnumerateBits(4, 4, func(int, bitstr.BitString) bool {
		t.Fatal("enumerated an element of an empty range")
		return false
	})
}

// edgeSeq is a URL log interleaved with the golden file's edge shapes: the
// empty string, a chain of proper prefixes, and a 300-byte key.
func edgeSeq(n int) []string {
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	edges := []string{"", "a", "ab", "abc", string(long), "", "ab", string(long[:299])}
	seq := workload.URLLog(n, 7, workload.DefaultURLConfig())
	for i := 0; i < n; i += 97 {
		seq[i] = edges[(i/97)%len(edges)]
	}
	return seq
}

// TestExtractorMatchesAccess drives the page extractor against
// per-element AccessBits: ranges of every length around a page's edges
// (r−l ∈ {0, 1, 255, 256, 257}, and a few pages) from the root through
// EnumerateBits and Enumerate, and sparse sorted index sets — every k-th
// match, a random subset, the first and last — at prefix nodes through
// PrefixCursor.Values, over a trie holding the golden edge shapes.
func TestExtractorMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 9, 700, 3000} {
		seq := edgeSeq(n)
		fz := freezeOf(seq)
		for _, width := range []int{0, 1, 255, 256, 257, 3*pageLen + 5} {
			for trial := 0; trial < 4; trial++ {
				l := 0
				if n > width {
					l = r.Intn(n - width + 1)
				}
				hi := min(l+width, n)
				got := l
				fz.EnumerateBits(l, hi, func(pos int, s bitstr.BitString) bool {
					if pos != got || bitstr.Compare(s, fz.AccessBits(pos)) != 0 {
						t.Fatalf("n=%d [%d,%d): element %d (expected %d) differs from Access", n, l, hi, pos, got)
					}
					got++
					return true
				})
				if got != hi {
					t.Fatalf("n=%d [%d,%d): EnumerateBits stopped at %d", n, l, hi, got)
				}
				got = l
				fz.Enumerate(l, hi, func(pos int, s string) bool {
					if pos != got || s != seq[pos] {
						t.Fatalf("n=%d [%d,%d): Enumerate(%d) = %q, want %q", n, l, hi, pos, s, seq[pos])
					}
					got++
					return true
				})
				if got != hi {
					t.Fatalf("n=%d [%d,%d): Enumerate stopped at %d", n, l, hi, got)
				}
			}
		}
		for _, p := range []string{"", "a", "ab", "host", seq[n/2], seq[n-1] + "x"} {
			key := bitstr.EncodePrefixString(p)
			c := fz.PrefixCursor(key)
			count := c.Count()
			var pos []int
			for {
				at, ok := c.Next()
				if !ok {
					break
				}
				pos = append(pos, at)
			}
			if len(pos) != count {
				t.Fatalf("n=%d prefix %q: %d matches, Count says %d", n, p, len(pos), count)
			}
			sets := [][]int{nil}
			for _, k := range []int{1, 3, 64} {
				var js []int
				for j := r.Intn(k); j < count; j += k {
					js = append(js, j)
				}
				sets = append(sets, js)
			}
			var sub []int
			for j := 0; j < count; j++ {
				if r.Intn(5) == 0 || j == 0 || j == count-1 {
					sub = append(sub, j)
				}
			}
			sets = append(sets, sub)
			for _, js := range sets {
				seen := 0
				c.Values(js, func(k int, v []byte) {
					if k != seen || string(v) != seq[pos[js[k]]] {
						t.Fatalf("n=%d prefix %q: value %d (match %d at %d) is %q, want %q", n, p, k, js[k], pos[js[k]], v, seq[pos[js[k]]])
					}
					seen++
				})
				if seen != len(js) {
					t.Fatalf("n=%d prefix %q: %d values for %d matches", n, p, seen, len(js))
				}
			}
			c.Close()
		}
	}
}
