package rrr

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/eliasfano"
	"repro/internal/wire"
)

// checkSegments builds the first n bits of words as the concatenation of
// the segments that begin at cuts (sorted, within [0, n]; a final segment
// runs to n) and checks every In query of every segment against popcount
// arithmetic on the raw words: RankIn at every position up to and
// including the segment's length, AccessRankIn at every bit, SelectIn of
// every occurrence of either value, an Iter stepped through the segment
// and sought around it, and Selectors fed increasing and then decreasing
// indices. It also round-trips the vector through DecodeSegments, whose
// rebuilt samples must be the ones FromSegments made.
func checkSegments(t testing.TB, r *rand.Rand, words []uint64, n int, cuts []int) {
	t.Helper()
	pre := make([]int, n+1) // pre[i] = ones in [0, i)
	for i := 0; i < n; i++ {
		pre[i+1] = pre[i] + int(words[i>>6]>>(uint(i)&63)&1)
	}
	bit := func(i int) byte { return byte(pre[i+1] - pre[i]) }
	starts := make([]uint64, len(cuts))
	for i, c := range cuts {
		starts[i] = uint64(c)
	}
	dir := eliasfano.FromSorted(starts, uint64(n)+1)
	v := FromSegments(words, n, dir)
	if v.Len() != n || v.Ones() != pre[n] {
		t.Fatalf("n=%d cuts=%v: Len/Ones = %d/%d, want %d/%d", n, cuts, v.Len(), v.Ones(), n, pre[n])
	}

	w := wire.NewWriter(1, 1)
	v.EncodeTo(w)
	rd, _ := wire.NewReader(w.Bytes(), 1, 1)
	again := DecodeSegments(rd, dir)
	if err := rd.Done(); err != nil {
		t.Fatalf("n=%d cuts=%v: decode: %v", n, cuts, err)
	}
	if !reflect.DeepEqual(again.super, v.super) {
		t.Fatalf("n=%d cuts=%v: decoded samples differ from built ones", n, cuts)
	}

	for i, from := range cuts {
		to := n
		if i+1 < len(cuts) {
			to = cuts[i+1]
		}
		if from == to {
			if got := v.RankIn(from, 0); got != 0 {
				t.Fatalf("n=%d cuts=%v: RankIn(%d, 0) = %d", n, cuts, from, got)
			}
			if _, ok := v.SelectIn(1, 0, from, to); ok {
				t.Fatalf("n=%d cuts=%v: SelectIn finds a bit in the empty segment at %d", n, cuts, from)
			}
			continue
		}
		length := to - from
		occ := [2][]int{} // positions in the segment, by bit value
		for pos := 0; pos <= length; pos++ {
			want := pre[from+pos] - pre[from]
			if got := v.RankIn(from, pos); got != want {
				t.Fatalf("n=%d cuts=%v: RankIn(%d, %d) = %d, want %d", n, cuts, from, pos, got, want)
			}
			if pos == length {
				break
			}
			if b, rank := v.AccessRankIn(from, pos); b != bit(from+pos) || rank != want {
				t.Fatalf("n=%d cuts=%v: AccessRankIn(%d, %d) = (%d, %d), want (%d, %d)", n, cuts, from, pos, b, rank, bit(from+pos), want)
			}
			occ[bit(from+pos)] = append(occ[bit(from+pos)], pos)
		}
		for b := byte(0); b <= 1; b++ {
			for idx, want := range occ[b] {
				if got, ok := v.SelectIn(b, idx, from, to); !ok || got != want {
					t.Fatalf("n=%d cuts=%v: SelectIn(%d, %d, %d, %d) = %d, %v, want %d", n, cuts, b, idx, from, to, got, ok, want)
				}
			}
			// One past the last occurrence, and far past it: not there.
			for _, idx := range []int{len(occ[b]), len(occ[b]) + length, len(occ[b]) + 3*superBits} {
				if got, ok := v.SelectIn(b, idx, from, to); ok {
					t.Fatalf("n=%d cuts=%v: SelectIn(%d, %d, %d, %d) = %d, but the segment holds %d", n, cuts, b, idx, from, to, got, len(occ[b]))
				}
			}
			if len(occ[b]) == 0 {
				continue
			}
			// Increasing runs at a random stride, then back down.
			s := v.Selector(b, from, to)
			stride := 1 + r.Intn(1+len(occ[b])/4)
			var asked []int
			for idx := r.Intn(stride); idx < len(occ[b]); idx += 1 + r.Intn(stride) {
				asked = append(asked, idx)
			}
			asked = append(asked, len(occ[b])-1, len(occ[b])-1, len(occ[b])/2, 0)
			for _, idx := range asked {
				if got := s.Select(idx); got != occ[b][idx] {
					t.Fatalf("n=%d cuts=%v: Selector(%d, %d, %d).Select(%d) = %d, want %d", n, cuts, b, from, to, idx, got, occ[b][idx])
				}
			}
		}
		var it Iter
		it.Reset(v, from, 0)
		for pos := 0; pos < length; pos++ {
			if it.Pos() != pos || it.Rank1() != pre[from+pos]-pre[from] {
				t.Fatalf("n=%d cuts=%v: Iter of %d at %d says pos %d rank %d", n, cuts, from, pos, it.Pos(), it.Rank1())
			}
			if got := it.Next(); got != bit(from+pos) {
				t.Fatalf("n=%d cuts=%v: Iter of %d: bit %d = %d", n, cuts, from, pos, got)
			}
		}
		if it.Rank1() != pre[to]-pre[from] {
			t.Fatalf("n=%d cuts=%v: Iter of %d ends with rank %d", n, cuts, from, it.Rank1())
		}
		for trial := 0; trial < 8; trial++ {
			pos := r.Intn(length)
			if trial&1 == 0 {
				it.Seek(pos)
			} else {
				it.Reset(v, from, pos)
			}
			if it.Pos() != pos || it.Rank1() != pre[from+pos]-pre[from] || it.Next() != bit(from+pos) {
				t.Fatalf("n=%d cuts=%v: Iter of %d moved to %d is off", n, cuts, from, pos)
			}
		}
	}
}

// randomWords returns n random bits of density p, packed.
func randomWords(r *rand.Rand, n int, p float64) []uint64 {
	words := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			words[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return words
}

// boundaryCuts draws k segment starts for an n-bit vector, half of them on
// or beside a block or superblock boundary, and always 0.
func boundaryCuts(r *rand.Rand, n, k int) []int {
	cuts := []int{0}
	for len(cuts) < k && n > 0 {
		c := r.Intn(n + 1)
		switch r.Intn(6) {
		case 0:
			c -= c % blockBits
		case 1:
			c -= c % superBits
		case 2:
			c = c - c%superBits + r.Intn(3) - 1
		}
		if c >= 0 && c <= n {
			cuts = append(cuts, c)
		}
	}
	sort.Ints(cuts)
	return cuts
}

// TestSegmentedDifferential cuts random vectors into random segments —
// starts and ends on block and superblock boundaries, one-bit segments,
// empty ones, a segment ending at Len() — and checks every segment-relative
// query at every position (checkSegments).
func TestSegmentedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2301))
	// The shapes a trie makes and the ones that go wrong first.
	fixed := []struct {
		n    int
		cuts []int
	}{
		{0, []int{0}},
		{1, []int{0}},
		{1, []int{0, 1}}, // the sentinel start at Len()
		{blockBits, []int{0, blockBits}},
		{superBits, []int{0, superBits}},
		// A segment that ends where a superblock begins: RankIn of its
		// whole length must not read the sample of the next segment.
		{2*superBits + 40, []int{0, 5, superBits, superBits + 1, 2 * superBits}},
		{2 * superBits, []int{0, superBits - 1, superBits, 2*superBits - 1, 2 * superBits}},
		// One segment spanning superblocks whose start is inside one.
		{4 * superBits, []int{0, 100, 4*superBits - 7}},
		// One-bit segments around a superblock boundary, and duplicates.
		{superBits + 200, []int{0, superBits - 2, superBits - 1, superBits, superBits, superBits + 1, superBits + 2}},
		// Starts mid-block, the segment ending in the same block.
		{300, []int{0, 10, 20, 62, 63, 64, 100, 125, 126, 127, 299}},
	}
	for _, tc := range fixed {
		for _, p := range []float64{0, 0.03, 0.5, 1} {
			checkSegments(t, r, randomWords(r, tc.n, p), tc.n, tc.cuts)
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(5 * superBits)
		if trial%5 == 0 {
			n -= n % blockBits // the last segment ends on a block boundary
		}
		p := []float64{0.001, 0.1, 0.5, 0.9}[trial%4]
		checkSegments(t, r, randomWords(r, n, p), n, boundaryCuts(r, n, 1+r.Intn(40)))
	}
}

// FuzzRankIn is checkSegments on fuzz-chosen bits and cuts: seed, length
// and density pick the vector; cutData is read two bytes a cut, the top
// two bits of which snap it to a block or superblock boundary.
func FuzzRankIn(f *testing.F) {
	le := func(cuts ...uint16) []byte {
		var out []byte
		for _, c := range cuts {
			out = binary.LittleEndian.AppendUint16(out, c)
		}
		return out
	}
	f.Add(int64(1), uint16(300), uint8(128), le(10, 62, 63, 64, 126))
	f.Add(int64(2), uint16(2*superBits), uint8(128), le(superBits-1, superBits, 2*superBits-1, 2*superBits))
	f.Add(int64(3), uint16(2*superBits+40), uint8(10), le(5, 2<<14|superBits, superBits+1, 2<<14|2*superBits))
	f.Add(int64(4), uint16(4*superBits), uint8(250), le(100, 1<<14|900, 4*superBits-7))
	f.Add(int64(5), uint16(superBits+200), uint8(60), le(superBits-2, superBits-1, superBits, superBits, superBits+1))
	f.Add(int64(6), uint16(5*blockBits), uint8(0), le(1<<14|70, 1<<14|140, 5*blockBits))
	f.Add(int64(7), uint16(1), uint8(255), le(1))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, density uint8, cutData []byte) {
		r := rand.New(rand.NewSource(seed))
		n := int(n16) % (8 * superBits)
		cuts := []int{0}
		for ; len(cutData) >= 2 && len(cuts) < 64; cutData = cutData[2:] {
			raw := binary.LittleEndian.Uint16(cutData)
			c := int(raw & (1<<14 - 1))
			switch raw >> 14 {
			case 1:
				c -= c % blockBits
			case 2:
				c -= c % superBits
			}
			if c <= n {
				cuts = append(cuts, c)
			}
		}
		sort.Ints(cuts)
		checkSegments(t, r, randomWords(r, n, float64(density)/255), n, cuts)
	})
}
