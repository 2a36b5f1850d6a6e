// Package rrr implements the RRR compressed bitvector of Raman, Raman and
// Rao [22 in the paper]: a static Fully Indexed Dictionary storing a
// bitvector of n bits with m ones in B(m,n) + o(n) bits while answering
// Access, Rank and Select in constant time (constant for the fixed block
// size, exactly as the Four-Russians tables make it in the paper).
//
// Encoding. The bits are split into blocks of 63 bits. Each block is
// represented by its class c (its popcount, 6 bits) and its offset (the
// lexicographic index of the block among the C(63,c) possible blocks of
// that class, ⌈log₂ C(63,c)⌉ bits). Low-entropy blocks therefore take few
// bits: a run of zeros costs 6 bits per 63. Every 16 blocks a superblock
// sample records the rank and the bit position of the block's offset in
// the offset stream — two samples packed into one 16-byte entry, the
// second as what it adds to the first — so queries add up at most one
// superblock of class fields (several per word read) and visit one block
// body. A point
// query never materialises that block: Rank, Access and Select walk the
// offset's combinatorial number system only as far as the queried bit
// (rankInBlock, selectInBlock), on the sparser of the block and its
// complement, and answer classes 0 and 63 without reading an offset. The
// sequential forms (Iter, Selector) keep that walk's state between calls
// (blockWalk), so they never walk a bit twice either; a bulk copy (Reader)
// decodes each block once into a word.
//
// The Wavelet Trie uses RRR for every bitvector β of the static variant
// (Theorem 3.7) and for the immutable segments of the append-only
// bitvector (§4.1, Theorem 4.5).
//
// Segments. The succinct trie keeps all its β in one Vector, one segment
// after the other, and only ever asks about one segment at a time: how
// many ones lie between the segment's start and a position inside it.
// FromSegments therefore counts every sample's rank from the start of the
// segment that owns the superblock's first bit, and the In forms (RankIn,
// AccessRankIn, SelectIn, Iter.Reset, Selector) take the segment with the
// query: a position in a later superblock than the segment's start reads
// its answer off the sample, and one in the same superblock sums class
// fields from the start itself — nobody has to store, or look up, the ones
// before each segment. A plain vector is one segment starting at 0, for
// which the In forms at start 0 are Rank1, AccessRank1 and Select.
package rrr

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/eliasfano"
)

const (
	blockBits      = 63
	classBits      = 6
	blocksPerSuper = 16
	superBits      = blockBits * blocksPerSuper
)

// choose[k][n] = C(n,k) for n,k ≤ 63. C(63,31) < 2^63 so uint64 suffices.
// Indexed class-first: a block walk holds k fixed between set bits while n
// counts down, so its reads run along one row.
var choose [blockBits + 1][blockBits + 1]uint64

// offsetWidth[c] = number of bits used to store an offset of class c.
var offsetWidth [blockBits + 1]int

func init() {
	for n := 0; n <= blockBits; n++ {
		choose[0][n] = 1
		for k := 1; k <= n; k++ {
			choose[k][n] = choose[k-1][n-1] + choose[k][n-1]
		}
	}
	for c := 0; c <= blockBits; c++ {
		// Width of the largest offset, C(63,c)-1. Class 0 and 63 need 0 bits.
		offsetWidth[c] = bits.Len64(choose[c][blockBits] - 1)
	}
}

// encodeBlock returns the class and offset of a 63-bit block. The offset
// is the block's rank among its class in the order that, at the first
// differing position, puts the block with a 0 there first.
func encodeBlock(w uint64) (class int, offset uint64) {
	class = bits.OnesCount64(w)
	for k := class; w != 0; k-- {
		offset += choose[k][blockBits-1-bits.TrailingZeros64(w)]
		w &= w - 1
	}
	return class, offset
}

// sparser returns the walkable form of a block: itself when at most half
// its bits are set, else its complement — the order on offsets reverses
// under complement, so that is class 63-c at offset C(63,c)-1-offset —
// with flip = 1. Walks then end after at most 31 set bits.
func sparser(class int, offset uint64) (k int, off uint64, flip byte) {
	if class > blockBits/2 {
		return blockBits - class, choose[class][blockBits] - 1 - offset, 1
	}
	return class, offset, 0
}

// branchyClass is the popcount up to which a block walk takes its set
// bits as branches: few enough that the predictor wins. Above it they are
// coin flips, and the walk steps branch-free (denseStep) instead.
const branchyClass = 16

// denseStep advances a block walk past position i without branching on
// the bit there. The suffix from i has k set bits left and rank offset
// among its class; c = C(62-i, k), and the bit at i is 1 iff offset >= c.
// m = 61-i selects the next position's thresholds, both candidates of
// which load while the compare resolves. It returns k, offset and c for
// position i+1, and the bit passed.
func denseStep(k, m int, offset, c uint64) (int, uint64, uint64, uint64) {
	c0, c1 := choose[k][m&63], choose[k-1][m&63]
	d, borrow := bits.Sub64(offset, c, 0)
	zero := -borrow // all ones iff the bit is 0
	return k - int(1-borrow), offset&zero | d&^zero, c0&zero | c1&^zero, 1 - borrow
}

// walkTo steps a walked form — k set bits left from position i on, offset
// their rank among its class — on to position r, and returns what is left
// there.
func walkTo(k int, offset uint64, i, r int) (int, uint64) {
	if k > branchyClass {
		c := choose[k][blockBits-1-i]
		for ; i < r && k > 0; i++ {
			k, offset, c, _ = denseStep(k, blockBits-2-i, offset, c)
		}
		return k, offset
	}
	for ; i < r && k > 0; i++ {
		if c := choose[k][blockBits-1-i]; offset >= c {
			offset -= c
			k--
		}
	}
	return k, offset
}

// rankInBlock returns the number of set bits in positions [r0, r) of the
// block (class, offset) and the bit at r, for r0 <= r in [0, 63). It is
// one walk, which stops at r and never builds the block.
func rankInBlock(class int, offset uint64, r0, r int) (rank int, bit byte) {
	k, offset, flip := sparser(class, offset)
	k, offset = walkTo(k, offset, 0, r0)
	ones := k
	k, offset = walkTo(k, offset, r0, r)
	ones -= k
	if k > 0 && offset >= choose[k][blockBits-1-r] {
		bit = 1
	}
	if flip == 1 {
		return r - r0 - ones, bit ^ 1
	}
	return ones, bit
}

// selectInBlock returns the position of the j-th (0-based) bit equal to b
// at or after position r0 of the block (class, offset) — or, when the block
// holds only m <= j of them there, blockBits+m: the one walk that looks for
// the bit has then counted what there is instead.
func selectInBlock(class int, offset uint64, b byte, j, r0 int) int {
	k, offset, flip := sparser(class, offset)
	want := uint64(b ^ flip) // the walked form's bit value being counted
	k, offset = walkTo(k, offset, 0, r0)
	i, asked := r0, j
	if k > branchyClass {
		c := choose[k][blockBits-1-i]
		for ; k > 0; i++ {
			var d uint64
			k, offset, c, d = denseStep(k, blockBits-2-i, offset, c)
			hit := int(d ^ want ^ 1)
			if hit > j {
				return i
			}
			j -= hit
		}
	}
	for ; k > 0; i++ {
		d := uint64(0)
		if c := choose[k][blockBits-1-i]; offset >= c {
			offset -= c
			k--
			d = 1
		}
		if d == want {
			if j == 0 {
				return i
			}
			j--
		}
	}
	// Only zeros of the walked form remain, from i to the block's end.
	if want == 1 {
		return blockBits + asked - j
	}
	if i+j < blockBits {
		return i + j
	}
	return blockBits + asked - j + blockBits - i
}

// decodeBlock rebuilds the 63-bit block (class, offset) as a word, bit i of
// the block at bit i — the inverse of encodeBlock. It walks the sparser
// form like rankInBlock and stops at its last set bit.
func decodeBlock(class int, offset uint64) uint64 {
	k, offset, flip := sparser(class, offset)
	var w uint64
	i := 0
	if k > branchyClass {
		c := choose[k][blockBits-1]
		for ; i < blockBits && k > 0; i++ {
			var bit uint64
			k, offset, c, bit = denseStep(k, blockBits-2-i, offset, c)
			w |= bit << uint(i)
		}
	}
	for ; i < blockBits && k > 0; i++ {
		if c := choose[k][blockBits-1-i]; offset >= c {
			offset -= c
			k--
			w |= 1 << uint(i)
		}
	}
	if flip == 1 {
		return ^w & (1<<blockBits - 1)
	}
	return w
}

// Vector is an immutable RRR-compressed bitvector.
type Vector struct {
	n    int
	ones int

	classes []uint64 // packed 6-bit classes, one per block
	offsets []uint64 // packed variable-width offsets

	// Superblock directory: for superblock s (covering blocks
	// [s*16,(s+1)*16)) a rank, the number of ones between the start of the
	// segment that owns the superblock's first bit and that bit, and a
	// pos, the bit position of its first offset in the stream (sampleAt).
	// One entry holds superblocks 2e and 2e+1 and is one cache line touch;
	// a closing entry holds the stream's length.
	super []sample
}

// sample packs two superblocks' samples into two words. The low rankBits
// of rank and posBits of pos are the even superblock's; above them sits
// what the odd one adds: to pos, the offset bits of the even superblock's
// sixteen blocks; to rank, its ones — or, with ownFlag, the odd
// superblock's rank itself, when the segment owning its first bit starts
// inside the even one (either is at most superBits).
type sample struct{ rank, pos uint64 }

const (
	rankBits = 52
	posBits  = 48
	ownFlag  = 1 << (64 - rankBits - 1)
)

// sampleAt returns superblock s's rank and offset position.
func (v *Vector) sampleAt(s int) (rank, pos int) {
	e := &v.super[s>>1]
	rank, pos = int(e.rank&(1<<rankBits-1)), int(e.pos&(1<<posBits-1))
	if s&1 == 1 {
		pos += int(e.pos >> posBits)
		if d := int(e.rank >> rankBits); d&ownFlag != 0 {
			rank = d &^ ownFlag
		} else {
			rank += d
		}
	}
	return rank, pos
}

// buildSuper derives the superblock directory and the ones count from
// the class fields — at construction and again on decode, so a loaded
// vector can never carry a directory inconsistent with its payload.
// starts lists where the segments begin, in order (nil: one segment); it
// is stepped beside the class fields, and the one block that holds the
// start owning the next superblock's first bit is walked as far as that
// start. Starts that are out of order or out of range — a directory not
// yet validated — make samples nobody may use, never a panic.
func (v *Vector) buildSuper(starts *eliasfano.Monotone) {
	nb := v.numBlocks()
	ns := (nb + blocksPerSuper - 1) / blocksPerSuper
	v.super = make([]sample, (ns+1)/2+1)
	var it eliasfano.Iter
	next, more := uint64(0), false
	if starts != nil {
		it = starts.Iter()
		next, more = it.Next()
	}
	// rel counts the ones since the start that owns the bit being passed.
	ones, rel, offPos := 0, 0, 0
	var cr classReader
	if nb > 0 {
		cr = v.classesFrom(0)
	}
	owner := ^uint64(0) // none
	for s := 0; s < ns; s++ {
		if e := &v.super[s>>1]; s&1 == 0 {
			*e = sample{uint64(rel), uint64(offPos)}
		} else {
			d := uint64(rel) - e.rank // the even superblock's ones
			if owner != ^uint64(0) {
				d = uint64(rel) | ownFlag
			}
			e.rank |= d << rankBits
			e.pos |= (uint64(offPos) - e.pos) << posBits
		}
		// The last start up to the next superblock's first bit owns it.
		end := uint64(s+1) * superBits
		owner = ^uint64(0)
		for more && next <= end {
			owner = next
			next, more = it.Next()
		}
		for b := s * blocksPerSuper; b < min((s+1)*blocksPerSuper, nb); b++ {
			c := cr.next()
			ones += c
			if uint64(b) == owner/blockBits {
				in := 0
				// DecodeSegments checks the offset stream's length after
				// this pass has measured it: a short one is not read.
				if offPos+offsetWidth[c] <= len(v.offsets)*64 {
					in, _ = rankInBlock(c, v.offset(c, offPos), 0, int(owner%blockBits))
				}
				rel = c - in
			} else {
				rel += c
			}
			offPos += offsetWidth[c]
		}
		if owner == end {
			rel = 0
		}
	}
	v.super[len(v.super)-1] = sample{pos: uint64(offPos)}
	v.ones = ones
}

// FromWords compresses the first n bits of words (bit i at word i/64,
// offset i%64).
func FromWords(words []uint64, n int) *Vector { return FromSegments(words, n, nil) }

// FromSegments is FromWords for the concatenation of the segments that
// begin at starts, a non-decreasing sequence of positions in [0, n]: the
// In queries then count from a segment's own start. starts is read, not
// kept.
func FromSegments(words []uint64, n int, starts *eliasfano.Monotone) *Vector {
	if n < 0 || n > len(words)*64 {
		panic(fmt.Sprintf("rrr: FromWords: n=%d out of range for %d words", n, len(words)))
	}
	nb := (n + blockBits - 1) / blockBits
	v := &Vector{n: n}
	// Both streams at their final size: the classes are a fixed width a
	// block, and a popcount pass prices the offsets before they are encoded.
	offBits := 0
	for b := 0; b < nb; b++ {
		offBits += offsetWidth[bits.OnesCount64(extractBlock(words, n, b))]
	}
	cw := packedWriter{words: make([]uint64, 0, (nb*classBits+63)/64)}
	ow := packedWriter{words: make([]uint64, 0, (offBits+63)/64)}
	for b := 0; b < nb; b++ {
		class, off := encodeBlock(extractBlock(words, n, b))
		cw.append(uint64(class), classBits)
		ow.append(off, offsetWidth[class])
	}
	v.classes = cw.words
	v.offsets = ow.words
	v.buildSuper(starts)
	return v
}

// FromBitvec compresses a plain bitvector.
func FromBitvec(bv *bitvec.Vector) *Vector { return FromWords(bv.Words(), bv.Len()) }

// extractBlock returns block b (63 bits) of the first n bits of words,
// with bits past n zeroed.
func extractBlock(words []uint64, n, b int) uint64 {
	start := b * blockBits
	end := start + blockBits
	wi := start >> 6
	off := uint(start) & 63
	var w uint64
	w = words[wi] >> off
	if off != 0 && wi+1 < len(words) {
		w |= words[wi+1] << (64 - off)
	}
	w &= 1<<blockBits - 1
	if end > n {
		valid := uint(n - start)
		w &= 1<<valid - 1
	}
	return w
}

// numBlocks returns the number of 63-bit blocks.
func (v *Vector) numBlocks() int { return (v.n + blockBits - 1) / blockBits }

// class returns the class of block b.
func (v *Vector) class(b int) int {
	return int(bitvec.ReadBits(v.classes, b*classBits, classBits))
}

// classReader streams consecutive 6-bit class fields, refilling from the
// packed words once per ten fields instead of addressing each field.
type classReader struct {
	words []uint64
	wi    int    // next word to load
	buf   uint64 // unread bits, LSB first
	have  int    // number of valid bits in buf
}

// classesFrom returns a reader positioned at block b's class.
func (v *Vector) classesFrom(b int) classReader {
	pos := b * classBits
	wi, off := pos>>6, pos&63
	return classReader{words: v.classes, wi: wi + 1, buf: v.classes[wi] >> uint(off), have: 64 - off}
}

func (cr *classReader) next() int {
	if cr.have < classBits {
		w := cr.words[cr.wi]
		cr.wi++
		c := int((cr.buf | w<<uint(cr.have)) & (1<<classBits - 1))
		cr.buf = w >> uint(classBits-cr.have)
		cr.have += 64 - classBits
		return c
	}
	c := int(cr.buf & (1<<classBits - 1))
	cr.buf >>= classBits
	cr.have -= classBits
	return c
}

// seek returns block b's class, the bit position of its offset in the
// offset stream and the ones in [start, b*blockBits), for start the start
// of the segment that holds a bit of block b. A superblock that begins
// inside the segment has the count in its sample; in start's own
// superblock the class fields are summed from start's block on, after one
// walk of that block as far as start — unless that block is b itself:
// then rank is 0 and r0 says how far into b the segment starts, for the
// caller's own walk of b to begin counting there.
func (v *Vector) seek(start, b int) (class, offPos, rank, r0 int) {
	s := b / blocksPerSuper
	i := s * blocksPerSuper
	sampled, offPos := v.sampleAt(s)
	cr := v.classesFrom(i)
	if i*blockBits >= start {
		rank = sampled
	} else {
		for sb := start / blockBits; i < sb; i++ {
			offPos += offsetWidth[cr.next()]
		}
		if r := start - i*blockBits; i == b {
			return cr.next(), offPos, 0, r
		} else if r > 0 {
			c := v.class(i)
			in, _ := rankInBlock(c, v.offset(c, offPos), 0, r)
			rank = -in
		}
	}
	for ; i < b; i++ {
		c := cr.next()
		offPos += offsetWidth[c]
		rank += c
	}
	return cr.next(), offPos, rank, 0
}

// offset reads the offset of a class-c block at offPos.
func (v *Vector) offset(c, offPos int) uint64 {
	return bitvec.ReadBits(v.offsets, offPos, offsetWidth[c])
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Ones returns the number of 1 bits.
func (v *Vector) Ones() int { return v.ones }

// Zeros returns the number of 0 bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Access returns bit pos.
func (v *Vector) Access(pos int) byte {
	bit, _ := v.AccessRank1(pos)
	return bit
}

// AccessRank1 returns bit pos together with Rank1(pos), from one block
// visit. Like every query that names no segment, it is for a vector that
// is one.
func (v *Vector) AccessRank1(pos int) (bit byte, rank int) { return v.AccessRankIn(0, pos) }

// AccessRankIn returns bit pos of the segment that starts at start
// together with RankIn(start, pos), from one block visit — the pair a
// wavelet-trie Access needs at every level. pos must lie inside the
// segment.
func (v *Vector) AccessRankIn(start, pos int) (bit byte, rank int) {
	p := start + pos
	if start < 0 || pos < 0 || p >= v.n {
		panic(fmt.Sprintf("rrr: Access(%d+%d) out of range [0,%d)", start, pos, v.n))
	}
	b := p / blockBits
	c, offPos, rank, r0 := v.seek(start, b)
	switch c {
	case 0:
		return 0, rank
	case blockBits:
		return 1, rank + p - b*blockBits - r0
	}
	in, bit := rankInBlock(c, v.offset(c, offPos), r0, p-b*blockBits)
	return bit, rank + in
}

// RankIn returns the number of 1 bits among the first pos bits of the
// segment that starts at start; pos may be the segment's length. The count
// is taken up to and including the segment's bit pos-1, so a segment's end
// never reads a sample that belongs to the next one.
func (v *Vector) RankIn(start, pos int) int {
	if pos == 0 {
		return 0
	}
	bit, rank := v.AccessRankIn(start, pos-1)
	return rank + int(bit)
}

// Rank1 returns the number of 1 bits in [0, pos). pos may equal Len().
func (v *Vector) Rank1(pos int) int {
	if pos < 0 || pos > v.n {
		panic(fmt.Sprintf("rrr: Rank1(%d) out of range [0,%d]", pos, v.n))
	}
	if pos == v.n {
		return v.ones
	}
	_, rank := v.AccessRank1(pos)
	return rank
}

// Rank0 returns the number of 0 bits in [0, pos).
func (v *Vector) Rank0(pos int) int { return pos - v.Rank1(pos) }

// Rank returns the number of occurrences of bit b in [0, pos).
func (v *Vector) Rank(b byte, pos int) int {
	if b == 0 {
		return v.Rank0(pos)
	}
	return v.Rank1(pos)
}

// Select1 returns the position of the idx-th (0-based) 1 bit.
func (v *Vector) Select1(idx int) int { return v.Select(1, idx) }

// Select0 returns the position of the idx-th (0-based) 0 bit.
func (v *Vector) Select0(idx int) int { return v.Select(0, idx) }

// Select returns the position of the idx-th occurrence of bit b.
func (v *Vector) Select(b byte, idx int) int {
	total := v.ones
	if b == 0 {
		total = v.n - v.ones
	}
	if idx < 0 || idx >= total {
		panic(fmt.Sprintf("rrr: Select%d(%d) out of range (%d such bits in [0,%d))", b, idx, total, v.n))
	}
	pos, _ := v.SelectIn(b, idx, 0, v.n)
	return pos
}

// holds returns how many occurrences of bit b a block of class c holds
// (the last block's padding counts as zeros, past every valid answer).
func holds(c int, b byte) int {
	if b == 0 {
		return blockBits - c
	}
	return c
}

// SelectIn returns the position, counted from from, of the idx-th
// (0-based) occurrence of bit b in the segment [from, to) — a wavelet trie
// node knows its segment — and whether the segment holds that many. The
// superblock search is confined to the segment: for a short one there is
// nothing left to search.
func (v *Vector) SelectIn(b byte, idx, from, to int) (pos int, ok bool) {
	if idx < 0 || from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("rrr: Select%d(%d) in [%d,%d) out of range [0,%d)", b, idx, from, to, v.n))
	}
	if from == to {
		return 0, false
	}
	blk, offPos, before, r0 := v.locate(b, idx, from, to)
	if r0 > 0 {
		// The segment's first block, from r0 on. Where the answer can be
		// there, one walk finds it or counts what there is of b; where it
		// cannot, a walk as far as r0 counts the same.
		c := v.class(blk)
		have := holds(c, b)
		if idx < min(have, blockBits-r0) {
			at := selectInBlock(c, v.offset(c, offPos), b, idx, r0)
			if at < blockBits {
				pos = blk*blockBits + at - from
				return pos, pos < to-from
			}
			before = at - blockBits
		} else {
			in, _ := rankInBlock(c, v.offset(c, offPos), 0, r0)
			if b == 0 {
				in = r0 - in
			}
			before = have - in
		}
		blk, offPos = blk+1, offPos+offsetWidth[c]
	}
	blk, c, offPos, before, ok := v.scan(b, idx, to, blk, offPos, before)
	if !ok {
		return 0, false
	}
	// In the last block the padding counts as zeros, past the valid bits.
	pos = blk*blockBits + selectInBlock(c, v.offset(c, offPos), b, idx-before, 0) - from
	return pos, pos < to-from
}

// locate says where the search for occurrence idx of bit b in the segment
// [from, to) begins: at the last superblock that begins inside the segment
// with at most idx occurrences before it — before is that count, off the
// sample — or, when there is none, at the block from lies in, r0 bits into
// it, whose sample counts from somewhere else.
func (v *Vector) locate(b byte, idx, from, to int) (blk, offPos, before, r0 int) {
	// count(s) = occurrences of b in [from, s*superBits), for a superblock
	// that begins inside the segment.
	count := func(s int) int {
		rank, _ := v.sampleAt(s)
		if b == 1 {
			return rank
		}
		return s*superBits - from - rank
	}
	lo, hi := (from+superBits-1)/superBits, (to-1)/superBits
	if lo <= hi && count(lo) <= idx {
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if count(mid) <= idx {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		_, offPos = v.sampleAt(lo)
		return lo * blocksPerSuper, offPos, count(lo), 0
	}
	s := from / superBits
	_, offPos = v.sampleAt(s)
	blk = from / blockBits
	if i := s * blocksPerSuper; i < blk {
		for cr := v.classesFrom(i); i < blk; i++ {
			offPos += offsetWidth[cr.next()]
		}
	}
	return blk, offPos, 0, from - blk*blockBits
}

// scan sums class fields from block blk on, before being the occurrences
// of b in the segment up to that block, as far as the block that holds
// occurrence idx: it returns that block, its class and offset position and
// the occurrences before it — or ok = false when the segment, which ends
// at to, ends first.
func (v *Vector) scan(b byte, idx, to, blk, offPos, before int) (int, int, int, int, bool) {
	if blk*blockBits >= to {
		return 0, 0, 0, 0, false
	}
	for cr := v.classesFrom(blk); ; blk++ {
		c := cr.next()
		have := holds(c, b)
		if idx-before < have {
			return blk, c, offPos, before, true
		}
		if (blk+1)*blockBits >= to {
			return 0, 0, 0, 0, false
		}
		before += have
		offPos += offsetWidth[c]
	}
}

// SizeBits returns the total size of the encoding in bits: packed classes,
// packed offsets and the superblock directory.
func (v *Vector) SizeBits() int {
	return len(v.classes)*64 + len(v.offsets)*64 + len(v.super)*128
}

// OffsetStreamBits returns the size of the offset stream alone — the part
// that approaches the information-theoretic minimum B(m,n).
func (v *Vector) OffsetStreamBits() int {
	return int(v.super[len(v.super)-1].pos)
}

// blockWalk reads one block's bits in order without materialising the
// block: the combinatorial-number-system walk of rankInBlock and
// selectInBlock, with its state kept between calls. A cursor that stops
// after a few bits has paid for a few bits, and one that goes on never
// walks a bit twice.
type blockWalk struct {
	k    int    // set bits of the walked form not yet passed
	off  uint64 // rank of the remaining suffix among its class
	flip byte   // 1 when the walked form is the block's complement
	i    int    // the next position, in [0, blockBits]
}

func startWalk(class int, offset uint64) blockWalk {
	k, off, flip := sparser(class, offset)
	return blockWalk{k: k, off: off, flip: flip}
}

// next returns the bit at position i and steps past it.
func (w *blockWalk) next() byte {
	bit := w.flip
	if w.k > 0 {
		if c := choose[w.k][(blockBits-1-w.i)&63]; w.off >= c {
			w.off -= c
			w.k--
			bit ^= 1
		}
	}
	w.i++
	return bit
}

// run steps forward until it has passed need occurrences of bit b or
// reached position limit, whichever comes first, and returns how many
// occurrences it passed. The state stays in registers and the steps take
// no branch on the bit (denseStep): near a trie's root the bits are coin
// flips.
func (w *blockWalk) run(b byte, need, limit int) (found int) {
	k, off, i := w.k, w.off, w.i
	same := uint64(b^w.flip) ^ 1 // what a walked 0 adds to found
	if k > 0 {
		c := choose[k][(blockBits-1-i)&63]
		for ; i < limit && found < need && k > 0; i++ {
			var bit uint64
			k, off, c, bit = denseStep(k, blockBits-2-i, off, c)
			found += int(bit ^ same)
		}
	}
	if k == 0 && i < limit && found < need {
		// Only zeros of the walked form remain.
		n := limit - i
		if same == 1 {
			n = min(n, need-found)
			found += n
		}
		i += n
	}
	w.k, w.off, w.i = k, off, i
	return found
}

// Iter returns an iterator positioned at bit pos. Iterators provide O(1)
// amortized Next, which §5's sequential-access algorithm relies on.
func (v *Vector) Iter(pos int) *Iter {
	it := new(Iter)
	it.Reset(v, 0, pos)
	return it
}

// Reset points the cursor at bit pos of the segment of v that starts at
// start — Iter in place, for a caller that embeds the cursor in its own
// state (a wavelet-trie walk holds one per open node). It costs what
// AccessRankIn does: the class-sum seek and a block walk as far as pos.
func (it *Iter) Reset(v *Vector, start, pos int) {
	p := start + pos
	if start < 0 || pos < 0 || p > v.n {
		panic(fmt.Sprintf("rrr: Iter(%d+%d) out of range [0,%d]", start, pos, v.n))
	}
	*it = Iter{v: v, start: start, pos: p}
	if p == v.n {
		it.rank = v.RankIn(start, pos)
		return
	}
	it.block = p / blockBits
	var r0 int
	it.class, it.offPos, it.rank, r0 = v.seek(start, it.block)
	it.w = startWalk(it.class, v.offset(it.class, it.offPos))
	it.w.run(1, blockBits+1, r0) // the bits before the segment count for nothing
	it.rank += it.w.run(1, blockBits+1, p-it.block*blockBits)
}

// Iter is a sequential bit cursor over a segment of a Vector; positions
// and ranks count from the segment's start. Beside the bit it carries
// Rank1 of its position, so a wavelet-trie walk reads a node's branch bit
// and the position in the child from the one block visit.
type Iter struct {
	v      *Vector
	start  int // of the segment
	pos    int // in v
	rank   int // ones in [start, pos)
	block  int // the block w walks
	class  int
	offPos int
	w      blockWalk
}

// Pos returns the position of the bit that Next will return.
func (it *Iter) Pos() int { return it.pos - it.start }

// Rank1 returns the number of 1 bits before Pos.
func (it *Iter) Rank1() int { return it.rank }

// Valid reports whether Next may be called.
func (it *Iter) Valid() bool { return it.pos < it.v.n }

// Seek moves the cursor to bit pos: further on in the block it is
// walking, by walking there; anywhere else, at the cost of a new cursor.
func (it *Iter) Seek(pos int) {
	p := it.start + pos
	if p < it.pos || p >= (it.block+1)*blockBits || p >= it.v.n {
		it.Reset(it.v, it.start, pos)
		return
	}
	it.rank += it.w.run(1, blockBits+1, it.w.i+p-it.pos)
	it.pos = p
}

// Next returns the bit at the current position and advances.
func (it *Iter) Next() byte {
	if it.pos >= it.v.n {
		panic("rrr: Iter.Next past end")
	}
	if it.w.i == blockBits {
		it.offPos += offsetWidth[it.class]
		it.block++
		it.class = it.v.class(it.block)
		it.w = startWalk(it.class, it.v.offset(it.class, it.offPos))
	}
	bit := it.w.next()
	it.pos++
	it.rank += int(bit)
	return bit
}

// Reader copies a Vector's bits out front to back, a whole block at a
// time: every block is decoded once into a word (decodeBlock), the class
// fields stream and no superblock sample is consulted — what a structural
// freeze or merge asks of a source's bitvector, where Iter would walk each
// bit on its own.
type Reader struct {
	v      *Vector
	pos    int         // the next bit to deliver
	cr     classReader // at the class of the next block to decode
	offPos int         // bit position of that block's offset
	buf    uint64      // decoded bits not yet delivered, LSB first
	have   int         // how many
}

// Reader returns a Reader at bit 0.
func (v *Vector) Reader() Reader {
	r := Reader{v: v}
	if v.n > 0 {
		r.cr = v.classesFrom(0)
	}
	return r
}

// Pos returns the position of the next bit AppendTo delivers.
func (r *Reader) Pos() int { return r.pos }

// AppendTo appends the next n bits to dst and returns how many of them
// are set; n must not exceed Len() - Pos().
func (r *Reader) AppendTo(dst *bitstr.Builder, n int) (ones int) {
	if n < 0 || n > r.v.n-r.pos {
		panic(fmt.Sprintf("rrr: Reader: %d bits requested at %d of %d", n, r.pos, r.v.n))
	}
	for n > 0 {
		if r.have == 0 {
			c := r.cr.next()
			r.buf = decodeBlock(c, r.v.offset(c, r.offPos))
			r.offPos += offsetWidth[c]
			r.have = min(blockBits, r.v.n-r.pos)
		}
		m := min(r.have, n)
		w := r.buf & (1<<uint(m) - 1)
		dst.AppendUint(w, m)
		ones += bits.OnesCount64(w)
		r.buf >>= uint(m)
		r.have -= m
		r.pos += m
		n -= m
	}
	return ones
}

// selectorNear is how many blocks a Selector steps forward by summing
// class fields before it gives the target up as far and re-seeks through
// the superblock samples (DESIGN.md §9 records the measurement).
const selectorNear = 32

// Selector answers SelectIn for one bit value and one segment over a
// non-decreasing series of indices — what enumerating a wavelet-trie
// node's elements asks of every bitvector on the node's root path. It
// remembers the block the last answer fell in and how far into it: a
// target in the same block continues the block walk from there, a target a
// few blocks on is reached by summing class fields (no offset is read on
// the way), and only a far target — or a smaller one; any index is
// answered — pays the sampled search (jump), once: the block that finds is
// where the walk resumes.
type Selector struct {
	v        *Vector
	b        byte
	from, to int         // the segment
	blk      int         // the remembered block; valid iff cr.words != nil
	class    int         // its class
	offPos   int         // bit position of its offset
	before   int         // occurrences of b in [from, blk*blockBits); in the segment's first block, minus those it holds before from
	cr       classReader // at block blk+1's class
	seen     int         // occurrences of b that w has passed
	w        blockWalk   // over blk; started iff w.i > 0
}

// Selector returns a Selector for occurrences of bit b in the segment
// [from, to).
func (v *Vector) Selector(b byte, from, to int) Selector {
	return Selector{v: v, b: b, from: from, to: to}
}

// Select returns the position, counted from the segment's start, of the
// idx-th (0-based) occurrence of the selector's bit in the segment, which
// the caller knows to hold that many.
func (s *Selector) Select(idx int) int {
	near := s.cr.words != nil && idx >= s.before+s.seen
	for steps := 0; near && idx-s.before >= holds(s.class, s.b); steps++ {
		if steps == selectorNear || (s.blk+1)*blockBits >= s.to {
			near = false
			break
		}
		s.before += holds(s.class, s.b)
		s.offPos += offsetWidth[s.class]
		s.blk++
		s.class = s.cr.next()
		s.seen, s.w.i = 0, 0
	}
	if !near {
		s.jump(idx)
	}
	if s.w.i == 0 {
		s.w = startWalk(s.class, s.v.offset(s.class, s.offPos))
	}
	s.seen += s.w.run(s.b, idx-s.before+1-s.seen, blockBits)
	return s.blk*blockBits + s.w.i - 1 - s.from
}

// jump makes the block that holds occurrence idx the remembered one, not
// yet walked — but for the segment's first block, which is walked as far
// as the segment's start to learn what it holds of b from there on.
func (s *Selector) jump(idx int) {
	v := s.v
	blk, offPos, before, r0 := v.locate(s.b, idx, s.from, s.to)
	s.seen, s.w.i = 0, 0
	if r0 > 0 {
		c := v.class(blk)
		w := startWalk(c, v.offset(c, offPos))
		skipped := w.run(s.b, blockBits+1, r0)
		if idx < holds(c, s.b)-skipped {
			before, s.seen, s.w = -skipped, skipped, w
		} else {
			blk, offPos, before = blk+1, offPos+offsetWidth[c], holds(c, s.b)-skipped
		}
	}
	s.blk, s.class, s.offPos, s.before, _ = v.scan(s.b, idx, s.to, blk, offPos, before)
	s.cr = v.classesFrom(s.blk)
	s.cr.next()
}

// packedWriter appends variable-width fields into packed words.
type packedWriter struct {
	words []uint64
	n     int
}

func (p *packedWriter) append(v uint64, nbits int) {
	for len(p.words)*64 < p.n+nbits {
		p.words = append(p.words, 0)
	}
	bitvec.WriteBits(p.words, p.n, v, nbits)
	p.n += nbits
}
