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

		// Random subranges through the pull iterator.
		for trial := 0; trial < 8; trial++ {
			l := r.Intn(n + 1)
			rr := l + r.Intn(n-l+1)
			it := fz.Iter(l, rr)
			b := bitstr.NewBuilder(0)
			for pos := l; pos < rr; pos++ {
				if !it.Valid() {
					t.Fatalf("n=%d: iterator exhausted at %d of [%d,%d)", n, pos, l, rr)
				}
				if got := it.Pos(); got != pos {
					t.Fatalf("n=%d: Pos = %d, want %d", n, got, pos)
				}
				b.Reset()
				it.NextInto(b)
				if bitstr.Compare(b.View(), fz.AccessBits(pos)) != 0 {
					t.Fatalf("n=%d: Iter(%d,%d) differs from Access at %d", n, l, rr, pos)
				}
			}
			if it.Valid() {
				t.Fatalf("n=%d: iterator overruns [%d,%d)", n, l, rr)
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
