package succinct

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/workload"
)

// TestPrefixCursorMatchesSelectAccess compares the streaming cursor with
// the per-match form it replaces — SelectPrefixBits for the position,
// AccessBits for the value — for prefixes of every relation to the stored
// set: the empty prefix (the root), whole values (leaves), cuts inside
// labels, and absent keys; from every starting index class, in order and
// with values asked for out of order.
func TestPrefixCursorMatchesSelectAccess(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 60, 3000} {
		seq := workload.URLLog(n, 5, workload.DefaultURLConfig())
		fz := Freeze(core.NewStaticFromBits(encodeSeq(seq)))
		keys := []bitstr.BitString{bitstr.Empty, bitstr.EncodePrefixString("zzz"), bitstr.EncodePrefixString("host")}
		for i := 0; i < 12; i++ {
			v := seq[r.Intn(n)]
			keys = append(keys, bitstr.EncodeString(v), bitstr.EncodePrefixString(v),
				bitstr.EncodePrefixString(v[:r.Intn(len(v)+1)]), bitstr.EncodeString(v).Prefix(r.Intn(9*len(v)+2)))
		}
		for _, key := range keys {
			count := fz.RankPrefixBits(key, n)
			c := fz.PrefixCursor(key)
			// The rank along the remembered path, at every position when the
			// trie is small and at a sample otherwise, between two Nexts.
			c.Seek(count / 2)
			first, _ := c.Next()
			for pos := 0; pos <= n; pos += 1 + n/200 {
				if got, want := c.RankAt(pos), fz.RankPrefixBits(key, pos); got != want {
					t.Fatalf("n=%d key %v: RankAt(%d) = %d, RankPrefixBits says %d", n, key, pos, got, want)
				}
			}
			if c.RankAt(n) != count {
				t.Fatalf("n=%d key %v: RankAt(n) = %d, want the count %d", n, key, c.RankAt(n), count)
			}
			if next, ok := c.Next(); ok && next <= first {
				t.Fatalf("n=%d key %v: RankAt moved the cursor: %d then %d", n, key, first, next)
			}
			for _, from := range []int{0, count / 2, count - 1, count, count + 1, -1} {
				c.Seek(from)
				for j := from; ; j++ {
					pos, ok := c.Next()
					want, wok := fz.SelectPrefixBits(key, j)
					if ok != wok || (ok && pos != want) {
						t.Fatalf("n=%d key %v from %d: match %d = (%d,%v), want (%d,%v)", n, key, from, j, pos, ok, want, wok)
					}
					if !ok {
						break
					}
					if j%3 == 0 {
						continue // values on demand: skipping some makes the walk re-seek
					}
					var b bitstr.Builder
					c.ValueInto(&b, j)
					if !bitstr.Equal(b.View(), fz.AccessBits(pos)) {
						t.Fatalf("n=%d key %v: value of match %d differs from Access(%d)", n, key, j, pos)
					}
				}
			}
			// Values in any order, each asked for twice.
			for i := 0; i < 20 && count > 0; i++ {
				j := r.Intn(count)
				pos, _ := fz.SelectPrefixBits(key, j)
				for rep := 0; rep < 2; rep++ {
					var b bitstr.Builder
					c.ValueInto(&b, j)
					if !bitstr.Equal(b.View(), fz.AccessBits(pos)) {
						t.Fatalf("n=%d key %v: random value of match %d differs from Access(%d)", n, key, j, pos)
					}
				}
			}
			c.Close()
			if _, ok := c.Next(); ok {
				t.Fatalf("n=%d key %v: a closed cursor still yields", n, key)
			}
		}
	}
}

// TestPrefixCursorEmptyTrie: no element, no match, no panic.
func TestPrefixCursorEmptyTrie(t *testing.T) {
	c := Freeze(core.NewStaticFromBits(nil)).PrefixCursor(bitstr.Empty)
	if _, ok := c.Next(); ok {
		t.Fatal("the empty trie has a prefix match")
	}
	c.Close()
}

// TestIterReuseAfterClose: a closed iterator's slab chunks come back
// dirty to the next walk, which must not see their old contents.
func TestIterReuseAfterClose(t *testing.T) {
	seq := workload.URLLog(2000, 9, workload.DefaultURLConfig())
	fz := Freeze(core.NewStaticFromBits(encodeSeq(seq)))
	for round := 0; round < 4; round++ {
		l := round * 300
		it := fz.Iter(l, l+700)
		for pos := l; it.Valid(); pos++ {
			if !bitstr.Equal(it.Next(), fz.AccessBits(pos)) {
				t.Fatalf("round %d: element %d differs from Access", round, pos)
			}
		}
		it.Close()
		if it.Valid() {
			t.Fatal("a closed iterator is Valid")
		}
	}
}
