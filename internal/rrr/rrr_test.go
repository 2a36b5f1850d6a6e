package rrr

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
)

// binom is C(n,k), 0 outside 0 <= k <= n.
func binom(n, k int) uint64 {
	if k < 0 || k > n {
		return 0
	}
	return choose[k][n]
}

// referenceRank ranks the n-bit field x among the n-bit fields of its
// popcount, read off the definition of the split order: a field of 63
// bits splits into its low 32 and high 31, one of 32 or 31 bits into its
// low 16 and the rest, and fields with fewer low ones come first, then
// those with a smaller low part, then those with a smaller high part; a
// field of at most 16 bits is ordered as a number. It is slow and shares
// no table with the codec: the reference encodeBlock and decodeBlock are
// checked against.
func referenceRank(x uint64, n int) uint64 {
	k := bits.OnesCount64(x)
	if n == 0 {
		return 0
	}
	if n <= 16 {
		top := uint64(1) << uint(n-1)
		if x&top == 0 {
			return referenceRank(x, n-1)
		}
		return binom(n-1, k) + referenceRank(x&^top, n-1) // past every field with the top bit clear
	}
	lo := 16
	if n == blockBits {
		lo = 32
	}
	low, high := x&(1<<uint(lo)-1), x>>uint(lo)
	j := bits.OnesCount64(low)
	var before uint64
	for i := 0; i < j; i++ {
		before += binom(lo, i) * binom(n-lo, k-i)
	}
	return before + referenceRank(low, lo)*binom(n-lo, k-j) + referenceRank(high, n-lo)
}

// checkCodec holds one block to the reference — its class, its offset in
// range and equal to the reference rank, and the decode of that offset
// the block again — and returns the offset.
func checkCodec(t *testing.T, w uint64) uint64 {
	t.Helper()
	c, off := encodeBlock(w)
	if c != bits.OnesCount64(w) {
		t.Fatalf("block %#x: class %d", w, c)
	}
	if want := referenceRank(w, blockBits); off != want || off >= choose[c][blockBits] {
		t.Fatalf("block %#x: offset %d, reference %d, class size %d", w, off, want, choose[c][blockBits])
	}
	if got := decodeBlock(c, off); got != w {
		t.Fatalf("block %#x -> (%d, %d) -> %#x", w, c, off, got)
	}
	return off
}

// TestBlockCodecExhaustiveSmallClasses checks every block of classes 0,
// 1, 2, 61, 62 and 63 against the reference, and that each class's
// offsets are exactly [0, C(63,c)).
func TestBlockCodecExhaustiveSmallClasses(t *testing.T) {
	const full = 1<<blockBits - 1
	for _, k := range []int{0, 1, 2} {
		for _, flip := range []bool{false, true} {
			seen := make([]bool, choose[k][blockBits])
			var each func(w uint64, from, left int)
			each = func(w uint64, from, left int) {
				if left == 0 {
					if flip {
						w = ^w & full
					}
					off := checkCodec(t, w)
					if seen[off] {
						t.Fatalf("class %d: offset %d twice", bits.OnesCount64(w), off)
					}
					seen[off] = true
					return
				}
				for i := from; i < blockBits; i++ {
					each(w|1<<uint(i), i+1, left-1)
				}
			}
			each(0, 0, k)
			for off, ok := range seen {
				if !ok {
					t.Fatalf("class %d (complemented %v): offset %d never produced", k, flip, off)
				}
			}
		}
	}
}

// TestBlockCodecRandom checks random blocks of every class from 3 to 60
// against the reference.
func TestBlockCodecRandom(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for c := 3; c <= blockBits-3; c++ {
		for i := 0; i < 400; i++ {
			var w uint64
			for _, p := range r.Perm(blockBits)[:c] {
				w |= 1 << uint(p)
			}
			checkCodec(t, w)
		}
	}
}

// TestBlockCodecRandomOffsets round-trips 2²⁰ random offsets, spread over
// every class, through decodeBlock and encodeBlock; checks that every
// offset a corrupt field can hold past a class's last decodes as the
// class's last block; and checks each reciprocal divisor against the
// hardware division on the quotient's edges and on random numerators.
func TestBlockCodecRandomOffsets(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 1<<20; i++ {
		c := i % (blockBits + 1)
		x := r.Uint64() % choose[c][blockBits]
		if gc, gx := encodeBlock(decodeBlock(c, x)); gc != c || gx != x {
			t.Fatalf("decodeBlock(%d, %d) encodes as (%d, %d)", c, x, gc, gx)
		}
	}
	for c := 0; c <= blockBits; c++ {
		n, field := choose[c][blockBits], uint64(1)<<uint(offsetWidth[c])
		last := decodeBlock(c, n-1)
		for _, x := range []uint64{n, n + 1, field - 1, n + r.Uint64()%(field-n+1)} {
			if x < field && x >= n && decodeBlock(c, x) != last {
				t.Fatalf("corrupt offset %d of class %d decodes as %#x, not the last block %#x", x, c, decodeBlock(c, x), last)
			}
		}
	}
	var divs []divisor
	divs = append(divs, divBlock[:]...)
	divs = append(divs, divHalf[0][:]...)
	divs = append(divs, divHalf[1][:16]...)
	for _, v := range divs {
		xs := []uint64{0, 1, v.d - 1, v.d, v.d + 1, 7*v.d - 1, 7 * v.d, 1<<63 - 1, 1<<63 - 1 - (1<<63-1)%v.d}
		for i := 0; i < 1000; i++ {
			xs = append(xs, r.Uint64()>>1, r.Uint64()>>uint(1+r.Intn(63)))
		}
		for _, x := range xs {
			if q, rem := v.divmod(x); q != x/v.d || rem != x%v.d {
				t.Fatalf("divmod(%d) by %d = (%d, %d), want (%d, %d)", x, v.d, q, rem, x/v.d, x%v.d)
			}
		}
	}
}

// FuzzBlockCodec decodes any class and any offset its field can hold: the
// word must have exactly class ones below bit 63 — a zero-copy reader
// skips CheckBlocks, so a foreign offset must still decode, in range, to
// some block of its class — and an offset below C(63,c) must round-trip
// and be the reference rank of its block.
func FuzzBlockCodec(f *testing.F) {
	f.Add(uint8(0), uint64(0))
	f.Add(uint8(1), uint64(62))
	f.Add(uint8(2), uint64(1833))
	f.Add(uint8(31), uint64(1)<<59)
	f.Add(uint8(31), ^uint64(0))
	f.Add(uint8(40), uint64(12345678901))
	f.Add(uint8(63), uint64(0))
	f.Fuzz(func(t *testing.T, class uint8, offset uint64) {
		c := int(class) % (blockBits + 1)
		x := offset & (1<<uint(offsetWidth[c]) - 1)
		w := decodeBlock(c, x)
		if w>>blockBits != 0 || bits.OnesCount64(w) != c {
			t.Fatalf("decodeBlock(%d, %d) = %#x: %d ones", c, x, w, bits.OnesCount64(w))
		}
		if x >= choose[c][blockBits] {
			return
		}
		if gc, gx := encodeBlock(w); gc != c || gx != x {
			t.Fatalf("decodeBlock(%d, %d) = %#x, which encodes as (%d, %d)", c, x, w, gc, gx)
		}
		if ref := referenceRank(w, blockBits); ref != x {
			t.Fatalf("decodeBlock(%d, %d) = %#x, whose reference rank is %d", c, x, w, ref)
		}
	})
}

var sink uint64

// BenchmarkBlockDecode times decodeBlock on random offsets of random
// classes, the sparse and the dense ones apart. It draws from 2^16
// pre-generated blocks: a cycle of a thousand is a pattern the branch
// predictor learns, which reads a third of what a descent, meeting
// blocks it has not seen, pays.
func BenchmarkBlockDecode(b *testing.B) {
	const blocks = 1 << 16
	for _, arm := range []struct {
		name   string
		lo, hi int
	}{{"class<=16", 0, 16}, {"class>16", 17, blockBits}} {
		b.Run(arm.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(42))
			classes, offsets := make([]int, blocks), make([]uint64, blocks)
			for i := range classes {
				classes[i] = arm.lo + r.Intn(arm.hi-arm.lo+1)
				offsets[i] = uint64(r.Int63n(int64(choose[classes[i]][blockBits])))
			}
			b.ResetTimer()
			var acc uint64
			for i := 0; i < b.N; i++ {
				acc ^= decodeBlock(classes[i&(blocks-1)], offsets[i&(blocks-1)])
			}
			sink = acc
		})
	}
}

func TestOffsetsAreDenseRanks(t *testing.T) {
	// For class 2 the offsets must be a perfect bijection with
	// {0, …, C(63,2)-1}: every offset in range, no collisions, all used.
	total := int(choose[2][blockBits])
	seen := make([]bool, total)
	for i := 0; i < blockBits; i++ {
		for j := i + 1; j < blockBits; j++ {
			w := uint64(1)<<uint(i) | uint64(1)<<uint(j)
			c, off := encodeBlock(w)
			if c != 2 {
				t.Fatalf("class of %x = %d", w, c)
			}
			if off >= uint64(total) {
				t.Fatalf("offset %d out of range %d", off, total)
			}
			if seen[off] {
				t.Fatalf("offset collision at %d", off)
			}
			seen[off] = true
		}
	}
	for off, ok := range seen {
		if !ok {
			t.Fatalf("offset %d never produced", off)
		}
	}
}

// blocksOfEveryClass yields, for every class 0..63, the two extreme
// offsets and a few random ones — as decoded 63-bit words (the codec
// tests hold decodeBlock to the reference).
func blocksOfEveryClass(r *rand.Rand, fn func(w uint64)) {
	for c := 0; c <= blockBits; c++ {
		total := choose[c][blockBits]
		offs := []uint64{0, total - 1, total / 2}
		for i := 0; i < 6; i++ {
			offs = append(offs, uint64(r.Int63n(int64(total))))
		}
		for _, off := range offs {
			fn(decodeBlock(c, off))
		}
	}
}

// TestRankInBlockEveryClassEveryPosition checks rankInBlock against the
// block's word: rank before r and the bit at r, for every class and every
// r.
func TestRankInBlockEveryClassEveryPosition(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	blocksOfEveryClass(r, func(w uint64) {
		c, off := encodeBlock(w)
		for pos := 0; pos < blockBits; pos++ {
			rank, bit := rankInBlock(c, off, 0, pos)
			wantRank := bits.OnesCount64(w & (1<<uint(pos) - 1))
			wantBit := byte(w >> uint(pos) & 1)
			if rank != wantRank || bit != wantBit {
				t.Fatalf("class %d block %#x: rankInBlock(%d) = (%d,%d), want (%d,%d)", c, w, pos, rank, bit, wantRank, wantBit)
			}
		}
	})
}

// TestSelectInBlockEveryClass checks select of both bit values against
// the materialised block, for every class and every valid index.
func TestSelectInBlockEveryClass(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	blocksOfEveryClass(r, func(w uint64) {
		c, off := encodeBlock(w)
		for b := byte(0); b <= 1; b++ {
			j := 0
			for pos := 0; pos < blockBits; pos++ {
				if byte(w>>uint(pos)&1) != b {
					continue
				}
				if got := selectInBlock(c, off, b, j, 0); got != pos {
					t.Fatalf("class %d block %#x: selectInBlock(bit %d, %d) = %d, want %d", c, w, b, j, got, pos)
				}
				j++
			}
		}
	})
}

// TestBlockKernelsAgreeOnForeignOffsets feeds the block kernels offsets
// no encoder produces (a corrupt file can: the field is wider than
// C(63,c)). The answers are meaningless but must describe one block of
// exactly `class` set bits, the one decodeBlock returns — so ranks stay
// consistent with the class sums and with the iterator, and a query on
// corrupt data returns a wrong answer, never a panic.
func TestBlockKernelsAgreeOnForeignOffsets(t *testing.T) {
	for c := 1; c < blockBits; c++ {
		widest := uint64(1)<<uint(offsetWidth[c]) - 1
		for _, off := range []uint64{choose[c][blockBits], widest, (choose[c][blockBits] + widest) / 2} {
			w := decodeBlock(c, off)
			if bits.OnesCount64(w) != c || w>>blockBits != 0 {
				t.Fatalf("class %d offset %d: decoded %#x has %d ones", c, off, w, bits.OnesCount64(w))
			}
			ones, zeros := 0, 0
			for pos := 0; pos < blockBits; pos++ {
				rank, bit := rankInBlock(c, off, 0, pos)
				if rank != ones || bit != byte(w>>uint(pos)&1) {
					t.Fatalf("class %d offset %d: rankInBlock(%d) = (%d,%d), decoded block says (%d,%d)", c, off, pos, rank, bit, ones, w>>uint(pos)&1)
				}
				if bit == 1 {
					if got := selectInBlock(c, off, 1, ones, 0); got != pos {
						t.Fatalf("class %d offset %d: select1(%d) = %d, want %d", c, off, ones, got, pos)
					}
					ones++
				} else {
					if got := selectInBlock(c, off, 0, zeros, 0); got != pos {
						t.Fatalf("class %d offset %d: select0(%d) = %d, want %d", c, off, zeros, got, pos)
					}
					zeros++
				}
			}
		}
	}
}

func buildBoth(r *rand.Rand, n int, p float64) (*Vector, *bitvec.Vector) {
	b := bitvec.NewBuilder(n)
	for i := 0; i < n; i++ {
		bit := byte(0)
		if r.Float64() < p {
			bit = 1
		}
		b.AppendBit(bit)
	}
	plain := b.Build()
	return FromBitvec(plain), plain
}

func TestAgainstPlainBitvec(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 62, 63, 64, 126, 127, 2015, 2016, 2017, 10000} {
		for _, p := range []float64{0, 0.02, 0.5, 0.98, 1} {
			v, plain := buildBoth(r, n, p)
			if v.Len() != n || v.Ones() != plain.Ones() {
				t.Fatalf("n=%d p=%v: Len/Ones mismatch", n, p)
			}
			for i := 0; i < n; i++ {
				if bit, rank := v.AccessRank1(i); bit != plain.Access(i) || rank != plain.Rank1(i) {
					t.Fatalf("n=%d p=%v AccessRank1(%d) = (%d,%d)", n, p, i, bit, rank)
				}
				if v.Access(i) != plain.Access(i) {
					t.Fatalf("n=%d p=%v Access(%d)", n, p, i)
				}
			}
			step := 1
			if n > 3000 {
				step = 7
			}
			for pos := 0; pos <= n; pos += step {
				if v.Rank1(pos) != plain.Rank1(pos) {
					t.Fatalf("n=%d p=%v Rank1(%d)=%d want %d", n, p, pos, v.Rank1(pos), plain.Rank1(pos))
				}
			}
			for idx := 0; idx < v.Ones(); idx += step {
				if v.Select1(idx) != plain.Select1(idx) {
					t.Fatalf("n=%d p=%v Select1(%d)", n, p, idx)
				}
			}
			for idx := 0; idx < v.Len()-v.Ones(); idx += step {
				if v.Select0(idx) != plain.Select0(idx) {
					t.Fatalf("n=%d p=%v Select0(%d)=%d want %d", n, p, idx, v.Select0(idx), plain.Select0(idx))
				}
			}
		}
	}
}

// iterAt returns a cursor at bit pos of v, a vector of one segment.
func iterAt(v *Vector, pos int) *Iter {
	it := new(Iter)
	it.Reset(v, 0, pos)
	return it
}

func TestIterMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	v, plain := buildBoth(r, 5000, 0.3)
	for _, start := range []int{0, 1, 62, 63, 100, 4999, 5000} {
		it := iterAt(v, start)
		for pos := start; pos < 5000; pos++ {
			if !it.Valid() {
				t.Fatalf("iter invalid at %d", pos)
			}
			if got := it.Next(); got != plain.Access(pos) {
				t.Fatalf("iter from %d: bit %d mismatch", start, pos)
			}
		}
		if it.Valid() {
			t.Fatal("iter should be exhausted")
		}
	}
}

func TestCompressionApproachesEntropy(t *testing.T) {
	// For sparse vectors the offset stream must be well below n bits and
	// within a reasonable factor of the binomial bound.
	r := rand.New(rand.NewSource(33))
	n := 1 << 18
	for _, p := range []float64{0.01, 0.05, 0.1} {
		v, plain := buildBoth(r, n, p)
		m := plain.Ones()
		// B(m,n) ~ n*H(p) via Stirling; compare against offset stream.
		h := -p*math.Log2(p) - (1-p)*math.Log2(1-p)
		lb := float64(n) * h
		got := float64(v.OffsetStreamBits())
		if got > lb*1.2+1000 {
			t.Errorf("p=%v m=%d: offset stream %d bits vs entropy bound %.0f", p, m, int(got), lb)
		}
		if v.SizeBits() >= n {
			t.Errorf("p=%v: total %d bits does not compress below raw %d", p, v.SizeBits(), n)
		}
	}
}

func TestRankSelectInverses(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16)%5000 + 1
		r := rand.New(rand.NewSource(seed))
		v, _ := buildBoth(r, n, 0.5)
		for idx := 0; idx < v.Ones(); idx += 11 {
			p := v.Select1(idx)
			if v.Access(p) != 1 || v.Rank1(p) != idx {
				return false
			}
		}
		for idx := 0; idx < v.Len()-v.Ones(); idx += 11 {
			p := v.Select0(idx)
			if v.Access(p) != 0 || v.Rank0(p) != idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	v := FromWords([]uint64{0b1}, 2)
	for _, fn := range []func(){
		func() { v.Access(2) },
		func() { v.Rank1(3) },
		func() { v.Select1(1) },
		func() { v.Select0(1) },
		func() { iterAt(v, 3) },
		func() { rd := v.Reader(); rd.AppendTo(bitstr.NewBuilder(0), 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// benchPoint times one point query at the two densities the layer ladder
// uses: 0.5 (every block is class ≈ 31) and 0.05.
func benchPoint(b *testing.B, query func(v *Vector, arg int)) {
	for _, p := range []float64{0.5, 0.05} {
		b.Run(fmt.Sprintf("p=%g", p), func(b *testing.B) {
			r := rand.New(rand.NewSource(34))
			v, _ := buildBoth(r, 1<<20, p)
			args := make([]int, 1024)
			for i := range args {
				args[i] = r.Intn(1 << 20)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query(v, args[i&1023])
			}
		})
	}
}

func BenchmarkRank1(b *testing.B) {
	benchPoint(b, func(v *Vector, arg int) { v.Rank1(arg) })
}

func BenchmarkAccess(b *testing.B) {
	benchPoint(b, func(v *Vector, arg int) { v.Access(arg) })
}

func BenchmarkSelect1(b *testing.B) {
	benchPoint(b, func(v *Vector, arg int) { v.Select1(arg % v.Ones()) })
}

func BenchmarkIterSequential(b *testing.B) {
	r := rand.New(rand.NewSource(36))
	v, _ := buildBoth(r, 1<<20, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := iterAt(v, 0)
		var acc byte
		for it.Valid() {
			acc ^= it.Next()
		}
		_ = acc
	}
}

// TestIterRankAndSeek checks the cursor's running Rank1, bit by bit
// across blocks and superblocks, and moving to a position — a Reset
// anywhere, backwards included, and a Reader's forward ReadIn over the
// same targets sorted: on in the walked block, across blocks and
// superblocks, and to the end — against the plain vector.
func TestIterRankAndSeek(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, p := range []float64{0, 0.001, 0.5, 1} {
		const n = 3*superBits + 100
		v, plain := buildBoth(r, n, p)
		it := iterAt(v, 0)
		for pos := 0; pos < n; pos++ {
			if it.Rank1() != plain.Rank1(pos) {
				t.Fatalf("p=%v: at %d cursor says rank %d, want %d", p, pos, it.Rank1(), plain.Rank1(pos))
			}
			it.Next()
		}
		if it.Rank1() != plain.Ones() {
			t.Fatalf("p=%v: final rank %d, want %d", p, it.Rank1(), plain.Ones())
		}
		targets := []int{0, 5, 6, 62, 63, 64, 200, 199, superBits - 1, superBits, 2*superBits + 17, 3, n - 1, n, 0, n}
		for i := 0; i < 200; i++ {
			targets = append(targets, r.Intn(n+1))
		}
		for _, pos := range targets {
			it.Reset(v, 0, pos)
			if it.Rank1() != plain.Rank1(pos) {
				t.Fatalf("p=%v: Reset to %d gives rank %d, want %d", p, pos, it.Rank1(), plain.Rank1(pos))
			}
			if pos < n {
				if got := it.Next(); got != plain.Access(pos) {
					t.Fatalf("p=%v: bit %d after Reset = %d", p, pos, got)
				}
			} else if it.Valid() {
				t.Fatalf("p=%v: cursor at the end is Valid", p)
			}
		}
		slices.Sort(targets)
		rd := v.Reader()
		for _, pos := range slices.Compact(targets) {
			if pos == n {
				continue
			}
			if w, rank := rd.ReadIn(0, pos, 1); rank != plain.Rank1(pos) || byte(w) != plain.Access(pos) {
				t.Fatalf("p=%v: ReadIn(0, %d, 1) = bit %d rank %d, want %d %d", p, pos, w, rank, plain.Access(pos), plain.Rank1(pos))
			}
		}
	}
}

// TestSelectorMatchesSelect drives the monotone selector against
// Select1/Select0 at densities 0, 10⁻³, 0.5 and 1, with index series that
// advance inside a block, across blocks, across superblocks (past
// selectorNear, so through the sampled fallback) and finish on the last
// valid bit — then steps backwards, which it must also answer. Selectors
// over the segments of a cut vector are TestSegmentedDifferential's.
func TestSelectorMatchesSelect(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 120*superBits + 29
	for _, p := range []float64{0, 0.001, 0.5, 1} {
		v, plain := buildBoth(r, n, p)
		for b := byte(0); b <= 1; b++ {
			total := plain.Ones()
			if b == 0 {
				total = n - total
			}
			if total == 0 {
				continue
			}
			per := float64(total) / float64(n) // occurrences per bit
			strides := map[string]int{
				"every":       1,
				"in-block":    max(1, int(5*per)),
				"next-block":  max(1, int(70*per)),
				"near-blocks": max(1, int(10*blockBits*per)),
				"superblocks": max(1, int(3*superBits*per)),
			}
			for name, stride := range strides {
				s := v.Selector(b, 0, n)
				check := func(idx int) {
					if got, want := s.Select(idx), plain.Select(b, idx); got != want {
						t.Fatalf("p=%v bit %d %s: Select(%d) = %d, want %d", p, b, name, idx, got, want)
					}
				}
				for idx := 0; idx < total; idx += stride {
					check(idx)
					if tail := total - 4*blockBits; stride == 1 && idx == 4*superBits && idx < tail {
						idx = tail // bit by bit, both ends are enough
					}
				}
				check(total - 1)
				check(total - 1)
				check(total / 2)
				check(0)
			}
		}
	}
}

// TestReaderMatchesAccess copies vectors out through a Reader in uneven
// pieces — across block and word boundaries, onto a destination that is
// itself unaligned — and checks bits, reported ones and Pos against the
// plain vector.
func TestReaderMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 62, 63, 64, 126, 127, 2016, 2017, 10000} {
		for _, p := range []float64{0, 0.02, 0.5, 0.98, 1} {
			v, plain := buildBoth(r, n, p)
			rd := v.Reader()
			dst := bitstr.NewBuilder(0)
			dst.AppendRun(1, 5)
			for pos := 0; pos < n; {
				m := min(1+r.Intn(150), n-pos)
				if rd.Pos() != pos {
					t.Fatalf("n=%d p=%v: Pos = %d, want %d", n, p, rd.Pos(), pos)
				}
				if got, want := rd.AppendTo(dst, m), plain.Rank1(pos+m)-plain.Rank1(pos); got != want {
					t.Fatalf("n=%d p=%v: %d ones in [%d,%d), want %d", n, p, got, pos, pos+m, want)
				}
				pos += m
			}
			if rd.Pos() != n || rd.AppendTo(dst, 0) != 0 {
				t.Fatalf("n=%d p=%v: reader not at the end", n, p)
			}
			out := dst.BitString()
			if out.Len() != n+5 {
				t.Fatalf("n=%d p=%v: copied %d bits", n, p, out.Len()-5)
			}
			for i := 0; i < n; i++ {
				if out.Bit(i+5) != plain.Access(i) {
					t.Fatalf("n=%d p=%v: bit %d differs", n, p, i)
				}
			}
		}
	}
}
