package rrr

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
)

// referenceBlock reconstructs the whole 63-bit block from its class and
// offset: the reference the partial walks (rankInBlock, selectInBlock,
// blockWalk) are checked against. All walk the same sparser form, so they
// agree on every bit even for an offset no encoder produces.
func referenceBlock(class int, offset uint64) uint64 {
	k, offset, flip := sparser(class, offset)
	var w uint64
	for i := 0; i < blockBits && k > 0; i++ {
		if c := choose[k][blockBits-1-i]; offset >= c {
			offset -= c
			w |= 1 << uint(i)
			k--
		}
	}
	if flip == 1 {
		return ^w & (1<<blockBits - 1)
	}
	return w
}

func TestBlockCodecExhaustiveSmallClasses(t *testing.T) {
	// Every block of class 0, 1, 2, 62 and 63 round-trips.
	checks := 0
	for _, w := range []uint64{0, 1<<63 - 1} {
		c, off := encodeBlock(w & (1<<blockBits - 1))
		if got := referenceBlock(c, off); got != w&(1<<blockBits-1) {
			t.Fatalf("codec broken for %x", w)
		}
		checks++
	}
	for i := 0; i < blockBits; i++ {
		w := uint64(1) << uint(i)
		c, off := encodeBlock(w)
		if c != 1 {
			t.Fatalf("class of single bit = %d", c)
		}
		if got := referenceBlock(c, off); got != w {
			t.Fatalf("single-bit codec broken for bit %d", i)
		}
		for j := i + 1; j < blockBits; j++ {
			w2 := w | 1<<uint(j)
			c2, off2 := encodeBlock(w2)
			if c2 != 2 || referenceBlock(c2, off2) != w2 {
				t.Fatalf("two-bit codec broken for bits %d,%d", i, j)
			}
			checks++
		}
		// Complement: class 62.
		w62 := ^w & (1<<blockBits - 1)
		c62, off62 := encodeBlock(w62)
		if c62 != 62 || referenceBlock(c62, off62) != w62 {
			t.Fatalf("class-62 codec broken for hole %d", i)
		}
	}
	if checks == 0 {
		t.Fatal("no checks ran")
	}
}

func TestBlockCodecRandom(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	for i := 0; i < 20000; i++ {
		w := r.Uint64() & (1<<blockBits - 1)
		c, off := encodeBlock(w)
		if c != bits.OnesCount64(w) {
			t.Fatalf("class mismatch for %x", w)
		}
		if off >= choose[c][blockBits] {
			t.Fatalf("offset %d out of range C(63,%d)=%d", off, c, choose[c][blockBits])
		}
		if got := referenceBlock(c, off); got != w {
			t.Fatalf("codec: %x -> (%d,%d) -> %x", w, c, off, got)
		}
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
// offsets and a few random ones — as materialised 63-bit words.
func blocksOfEveryClass(r *rand.Rand, fn func(w uint64)) {
	for c := 0; c <= blockBits; c++ {
		total := choose[c][blockBits]
		offs := []uint64{0, total - 1, total / 2}
		for i := 0; i < 6; i++ {
			offs = append(offs, uint64(r.Int63n(int64(total))))
		}
		for _, off := range offs {
			fn(referenceBlock(c, off))
		}
	}
}

// TestRankInBlockEveryClassEveryPosition checks the early-exit walk
// against the materialised block: rank before r and the bit at r, for
// every class and every r.
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

// TestBlockKernelsAgreeOnForeignOffsets feeds the three block kernels
// offsets no encoder produces (a corrupt file can: the field is wider
// than C(63,c)). The answers are meaningless but must describe one
// block of exactly `class` set bits, the same for all three — so ranks
// stay consistent with the class sums and with the iterator, and a
// query on corrupt data returns a wrong answer, never a panic.
func TestBlockKernelsAgreeOnForeignOffsets(t *testing.T) {
	for c := 1; c < blockBits; c++ {
		widest := uint64(1)<<uint(offsetWidth[c]) - 1
		for _, off := range []uint64{choose[c][blockBits], widest, (choose[c][blockBits] + widest) / 2} {
			w := referenceBlock(c, off)
			if bits.OnesCount64(w) != c || w>>blockBits != 0 {
				t.Fatalf("class %d offset %d: decoded %#x has %d ones", c, off, w, bits.OnesCount64(w))
			}
			if got := decodeBlock(c, off); got != w {
				t.Fatalf("class %d offset %d: decodeBlock = %#x, reference %#x", c, off, got, w)
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
			for idx := 0; idx < v.Zeros(); idx += step {
				if v.Select0(idx) != plain.Select0(idx) {
					t.Fatalf("n=%d p=%v Select0(%d)=%d want %d", n, p, idx, v.Select0(idx), plain.Select0(idx))
				}
			}
		}
	}
}

func TestIterMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	v, plain := buildBoth(r, 5000, 0.3)
	for _, start := range []int{0, 1, 62, 63, 100, 4999, 5000} {
		it := v.Iter(start)
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
		for idx := 0; idx < v.Zeros(); idx += 11 {
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
		func() { v.Iter(3) },
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
// uses: 0.5 (every block is class ≈ 31, the longest walks) and 0.05.
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
		it := v.Iter(0)
		var acc byte
		for it.Valid() {
			acc ^= it.Next()
		}
		_ = acc
	}
}

// TestBlockWalkMatchesDecode checks the resumable block walk against the
// materialised block for every class, stepped a bit at a time and run in
// strides, counting either bit value — and on offsets no encoder
// produces, where it must still describe the block referenceBlock does.
func TestBlockWalkMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	check := func(c int, off uint64) {
		w := referenceBlock(c, off)
		if got := decodeBlock(c, off); got != w {
			t.Fatalf("class %d offset %d: decodeBlock = %#x, reference %#x", c, off, got, w)
		}
		bw := startWalk(c, off)
		for pos := 0; pos < blockBits; pos++ {
			if got, want := bw.next(), byte(w>>uint(pos)&1); got != want {
				t.Fatalf("class %d offset %d: next at %d = %d, want %d", c, off, pos, got, want)
			}
		}
		for b := byte(0); b <= 1; b++ {
			word := w
			if b == 0 {
				word = ^w & (1<<blockBits - 1)
			}
			// Stop on position: counts of b in [from, limit).
			for _, stride := range []int{1, 7, 31, blockBits} {
				bw := startWalk(c, off)
				for from := 0; from < blockBits; from += stride {
					limit := min(from+stride, blockBits)
					want := bits.OnesCount64(word >> uint(from) & (1<<uint(limit-from) - 1))
					if got := bw.run(b, blockBits+1, limit); got != want || bw.i != limit {
						t.Fatalf("class %d offset %d: run(bit %d, to %d) = %d at %d, want %d", c, off, b, limit, got, bw.i, want)
					}
				}
			}
			// Stop on count: the walk ends just past the need-th occurrence.
			for _, need := range []int{1, 2, 5} {
				bw := startWalk(c, off)
				for seen := 0; seen+need <= bits.OnesCount64(word); seen += need {
					if got := bw.run(b, need, blockBits); got != need {
						t.Fatalf("class %d offset %d: run(bit %d, need %d) = %d", c, off, b, need, got)
					}
					if want := bitvec.Select64(word, seen+need-1) + 1; bw.i != want {
						t.Fatalf("class %d offset %d: run(bit %d) stopped at %d, want %d", c, off, b, bw.i, want)
					}
				}
			}
		}
	}
	blocksOfEveryClass(r, func(w uint64) { check(encodeBlock(w)) })
	for c := 1; c < blockBits; c++ {
		widest := uint64(1)<<uint(offsetWidth[c]) - 1
		check(c, choose[c][blockBits])
		check(c, widest)
	}
}

// TestIterRankAndSeek checks the cursor's running Rank1 and its Seek —
// on in the walked block, across blocks and superblocks, backwards, and
// to the end — against the plain vector.
func TestIterRankAndSeek(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for _, p := range []float64{0, 0.001, 0.5, 1} {
		const n = 3*superBits + 100
		v, plain := buildBoth(r, n, p)
		it := v.Iter(0)
		for pos := 0; pos < n; pos++ {
			if it.Pos() != pos || it.Rank1() != plain.Rank1(pos) {
				t.Fatalf("p=%v: at %d cursor says pos %d rank %d, want rank %d", p, pos, it.Pos(), it.Rank1(), plain.Rank1(pos))
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
			it.Seek(pos)
			if it.Pos() != pos || it.Rank1() != plain.Rank1(pos) {
				t.Fatalf("p=%v: Seek(%d) gives pos %d rank %d, want rank %d", p, pos, it.Pos(), it.Rank1(), plain.Rank1(pos))
			}
			if pos < n {
				if got := it.Next(); got != plain.Access(pos) {
					t.Fatalf("p=%v: bit %d after Seek = %d", p, pos, got)
				}
			} else if it.Valid() {
				t.Fatalf("p=%v: cursor at the end is Valid", p)
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
