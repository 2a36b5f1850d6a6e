package succinct

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
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
		fz := freezeOf(seq)
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
						continue // values on demand: not every match asks
					}
					if got, want := appendValue(c, nil, j), decodeBits(t, fz.AccessBits(pos)); string(got) != want {
						t.Fatalf("n=%d key %v: value of match %d is %q, Access(%d) says %q", n, key, j, got, pos, want)
					}
				}
			}
			// Values in any order, each asked for twice.
			for i := 0; i < 20 && count > 0; i++ {
				j := r.Intn(count)
				pos, _ := fz.SelectPrefixBits(key, j)
				for rep := 0; rep < 2; rep++ {
					if got, want := appendValue(c, []byte("x"), j), "x"+decodeBits(t, fz.AccessBits(pos)); string(got) != want {
						t.Fatalf("n=%d key %v: random value of match %d is %q, Access(%d) says %q", n, key, j, got, pos, want)
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
	c := freezeOf(nil).PrefixCursor(bitstr.Empty)
	if _, ok := c.Next(); ok {
		t.Fatal("the empty trie has a prefix match")
	}
	c.Close()
}

// TestIterReuseAfterClose: enumerations over overlapping ranges, one after
// the other — each closing its iterator, which hands the extractor back
// for the next to take, some of them stopped inside a page — serve every
// element of their own range, and a closed iterator is done.
func TestIterReuseAfterClose(t *testing.T) {
	seq := workload.URLLog(2000, 9, workload.DefaultURLConfig())
	fz := freezeOf(seq)
	for round := 0; round < 8; round++ {
		l, r := round*150, round*150+700
		stop := r
		if round%2 == 1 {
			stop = l + 300 // past a page's end, short of the next one's
		}
		next := l
		fz.EnumerateBits(l, r, func(pos int, s bitstr.BitString) bool {
			if pos != next || bitstr.Compare(s, fz.AccessBits(pos)) != 0 {
				t.Fatalf("round %d: element %d (after %d) differs from Access", round, pos, next)
			}
			next++
			return next < stop
		})
		if next != stop {
			t.Fatalf("round %d: enumeration of [%d,%d) ended at %d, want %d", round, l, r, next, stop)
		}
	}
	it := fz.Iter(0, 10)
	it.Close()
	if it.Valid() {
		t.Fatal("a closed iterator is Valid")
	}
}

// decodeBits decodes a stored string, failing the test on a malformed one.
func decodeBits(t testing.TB, bs bitstr.BitString) string {
	t.Helper()
	s, err := bitstr.DecodeString(bs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// appendValue appends to dst the value of match j: Values for a batch of
// one.
func appendValue(c *PrefixCursor, dst []byte, j int) []byte {
	c.Values([]int{j}, func(_ int, v []byte) { dst = append(dst, v...) })
	return dst
}
