// Package rrr implements the RRR compressed bitvector of Raman, Raman and
// Rao [22 in the paper]: a static Fully Indexed Dictionary storing a
// bitvector of n bits with m ones in B(m,n) + o(n) bits while answering
// Access, Rank and Select in constant time (constant for the fixed block
// size, exactly as the Four-Russians tables make it in the paper).
//
// Encoding. The bits are split into blocks of 63 bits. Each block is
// represented by its class c (its popcount, 6 bits) and its offset (the
// index of the block among the C(63,c) possible blocks of that class,
// ⌈log₂ C(63,c)⌉ bits). Low-entropy blocks therefore take few bits: a run
// of zeros costs 6 bits per 63. Every 16 blocks a superblock sample
// records the rank and the bit position of the block's offset in the
// offset stream, in a two-level directory (the sampled counters of
// Vigna's rank9): one 16-byte absolute entry per 32 superblocks, and per
// superblock one 32-bit entry holding what it adds to its group's — 36
// bits a superblock — so queries add up at most one superblock of class
// fields (several per word read) and visit one block body.
//
// Blocks are indexed in split order (encodeBlock): by the ones in the low
// half, then the low half's rank, then the high half's, each half split
// the same way at its bit 16. Decoding a block (decodeBlock) is then
// three searches of small cumulative-count rows, three divisions — each a
// multiply-high by a precomputed reciprocal and one correction — and four
// lookups in one 16-bit unrank table — the paper's universal table at a
// quarter block, two 128 KiB tables built at init. Every in-block query
// is that decode and a popcount or Select64 on the word: Rank and Access
// (rankInBlock), Select (selectInBlock), and the sequential forms (Iter,
// Selector and the forward Reader, which keep the decoded block between
// calls). Classes 0 and 63 are answered without reading an offset.
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
// AccessRankIn, SelectIn, Iter.Reset, Selector, Reader.ReadIn) take
// the segment with the query: a position in a later superblock than the
// segment's start reads its answer off the sample, and one in the same
// superblock sums class fields from the start itself — nobody has to
// store, or look up, the ones before each segment. A plain vector is one
// segment starting at 0, for which the In forms at start 0 are Rank1,
// AccessRank1 and Select.
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
var choose [blockBits + 1][blockBits + 1]uint64

// offsetWidth[c] = number of bits used to store an offset of class c.
var offsetWidth [blockBits + 1]int

// The split order. A block's offset is its rank among the C(63,c) blocks
// of its class c, ordered first by j, the ones among its low 32 bits, then
// by those 32 bits' rank among the C(32,j) halves with j ones, then by the
// high 31 bits' rank among the C(31,c-j). A half is ranked the same way,
// split at its bit 16, and a 16-bit quarter by colex rank (rank16), in
// which the words that leave bit 15 clear come first — so a 15-bit quarter
// has the same rank as a 16-bit one.
var (
	// blockStart[c][j] is the offset of the first class-c block with j ones
	// in its low half. Past the last possible j every entry is C(63,c), so
	// the last start at or below an offset of the class is at a possible j.
	blockStart [blockBits + 1][64]uint64
	// halfStart[h][k][j] is the same for a half with k ones: h = 0 is the
	// low half (16 + 16 bits), h = 1 the high half (16 + 15).
	halfStart [2][33][32]uint32
	// rank16[x] is x's colex rank among the 16-bit words of its popcount
	// k, and unrank16[first16[k]+r] the word of popcount k at rank r: the
	// paper's universal table, at a quarter block.
	rank16   [1 << 16]uint16
	unrank16 [1 << 16]uint16
	first16  [17]uint32

	// The divisors decoding divides by, with their reciprocals: divBlock[k]
	// is C(31,k), the count of high halves with k ones, and divHalf[h][k]
	// is C(16-h,k), the count of a half's high quarters with k ones.
	divBlock [32]divisor
	divHalf  [2][17]divisor
)

// divisor is a divisor d with rcp = ⌊(2⁶⁴−1)/d⌋: for x < 2⁶³ the high word
// of x·rcp is x/d or one less (x·rcp/2⁶⁴ > x/d − x/(d·2⁶⁴) − x/2⁶⁴ >
// x/d − 1), so divmod needs one multiplication and at most one
// correction, never a hardware division.
type divisor struct{ d, rcp uint64 }

func newDivisor(d uint64) divisor { return divisor{d, ^uint64(0) / d} }

// divmod returns x/d and x%d for x < 2⁶³.
func (v divisor) divmod(x uint64) (q, r uint64) {
	q, _ = bits.Mul64(x, v.rcp)
	if r = x - q*v.d; r >= v.d {
		q, r = q+1, r-v.d
	}
	return q, r
}

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
		fillStarts(blockStart[c][:], c, 32, 31)
	}
	for k := 0; k <= 32; k++ {
		fillStarts(halfStart[0][k][:], k, 16, 16)
		fillStarts(halfStart[1][k][:], k, 16, 15)
	}
	for k := range divBlock {
		divBlock[k] = newDivisor(choose[k][31])
	}
	for h := range divHalf {
		for k := 0; k <= 16-h; k++ {
			divHalf[h][k] = newDivisor(choose[k][16-h])
		}
	}
	for k := 1; k <= 16; k++ {
		first16[k] = first16[k-1] + uint32(choose[k-1][16])
	}
	for x := 0; x < 1<<16; x++ {
		r, i := 0, 0
		for w := uint(x); w != 0; w &= w - 1 {
			i++
			r += int(choose[i][bits.TrailingZeros(w)])
		}
		rank16[x] = uint16(r)
		unrank16[first16[i]+uint32(r)] = uint16(x)
	}
}

// fillStarts fills row with the split order's starts for fields of
// lo+hi bits holding k ones: row[j] is the rank of the first field with j
// ones in its low lo bits.
func fillStarts[T uint32 | uint64](row []T, k, lo, hi int) {
	var sum uint64
	for j := range row {
		row[j] = T(sum)
		if j <= lo && k-j >= 0 && k-j <= hi {
			sum += choose[j][lo] * choose[k-j][hi]
		}
	}
}

// encodeBlock returns the class and offset of a 63-bit block: its rank in
// the split order.
func encodeBlock(w uint64) (class int, offset uint64) {
	class = bits.OnesCount64(w)
	lo := w & (1<<32 - 1)
	j := bits.OnesCount64(lo)
	return class, blockStart[class][j] + uint64(encodeHalf(0, lo))*choose[class-j][31] + uint64(encodeHalf(1, w>>32))
}

// encodeHalf returns the rank of the half x (h as in halfStart) among the
// halves of its popcount.
func encodeHalf(h int, x uint64) uint32 {
	k := bits.OnesCount64(x)
	lo := x & (1<<16 - 1)
	j := bits.OnesCount64(lo)
	return halfStart[h][k][j] + uint32(rank16[lo])*uint32(choose[k-j][16-h]) + uint32(rank16[x>>16])
}

// decodeBlock rebuilds the 63-bit block (class, offset) as a word, bit i of
// the block at bit i — the inverse of encodeBlock: three unrolled searches
// of a start row, three divmods and four lookups in unrank16. An offset no
// encoder produces (a corrupt field is wider than C(63,c)) decodes as the
// class's last block, so every table index stays in range and the word
// has exactly class ones.
func decodeBlock(class int, offset uint64) uint64 {
	row := &blockStart[class]
	offset = min(offset, row[63]-1)
	j := 0
	if row[32] <= offset {
		j = 32
	}
	if row[j+16] <= offset {
		j += 16
	}
	if row[j+8] <= offset {
		j += 8
	}
	if row[j+4] <= offset {
		j += 4
	}
	if row[j+2] <= offset {
		j += 2
	}
	if row[j+1] <= offset {
		j++
	}
	lo, hi := divBlock[class-j].divmod(offset - row[j])
	return decodeHalf(0, j, uint32(lo)) | decodeHalf(1, class-j, uint32(hi))<<32
}

// decodeHalf returns the half (h as in halfStart) with k ones at rank r.
func decodeHalf(h, k int, r uint32) uint64 {
	row := &halfStart[h][k]
	j := 0
	if row[16] <= r {
		j = 16
	}
	if row[j+8] <= r {
		j += 8
	}
	if row[j+4] <= r {
		j += 4
	}
	if row[j+2] <= r {
		j += 2
	}
	if row[j+1] <= r {
		j++
	}
	lo, hi := divHalf[h][k-j].divmod(uint64(r - row[j]))
	return uint64(unrank16[first16[j]+uint32(lo)]) | uint64(unrank16[first16[k-j]+uint32(hi)])<<16
}

// occurrences returns the positions of bit b in the 63-bit block w as the
// set bits of a word.
func occurrences(w uint64, b byte) uint64 {
	if b == 0 {
		return ^w & (1<<blockBits - 1)
	}
	return w
}

// rankInBlock returns the number of set bits in positions [r0, r) of the
// block (class, offset) and the bit at r, for r0 <= r in [0, 63).
func rankInBlock(class int, offset uint64, r0, r int) (rank int, bit byte) {
	w := decodeBlock(class, offset)
	return bits.OnesCount64(w & (1<<uint(r) - 1) >> uint(r0)), byte(w >> uint(r) & 1)
}

// selectInBlock returns the position of the j-th (0-based) bit equal to b
// at or after position r0 of the block (class, offset) — or, when the block
// holds only m <= j of them there, blockBits+m.
func selectInBlock(class int, offset uint64, b byte, j, r0 int) int {
	occ := occurrences(decodeBlock(class, offset), b) >> uint(r0) << uint(r0)
	if m := bits.OnesCount64(occ); j >= m {
		return blockBits + m
	}
	return bitvec.Select64(occ, j)
}

// Vector is an immutable RRR-compressed bitvector.
type Vector struct {
	n    int
	ones int

	classes []uint64 // packed 6-bit classes, one per block
	offsets []uint64 // packed variable-width offsets

	// Superblock directory, two levels: for superblock s (covering blocks
	// [s*16,(s+1)*16)) a rank, the number of ones between the start of the
	// segment that owns the superblock's first bit and that bit, and a
	// pos, the bit position of its first offset in the stream (sampleAt).
	// groups holds both absolutely for the first superblock of every run of
	// groupSupers, super each superblock's 32-bit entry relative to its
	// group's.
	groups []sample
	super  []uint32
}

// sample is a group's absolute rank and offset position.
type sample struct{ rank, pos uint64 }

// A superblock entry holds, in its low 16 bits, the rank: what the
// superblock adds to its group's — or, with ownFlag, its rank itself, when
// a segment starts after the group's first bit and owns the superblock's
// — and in its high 16 bits what it adds to its group's pos. Either count
// spans at most groupSupers-1 superblocks: ≤ 31·1008 ones and ≤ 31·16·61
// offset bits.
const (
	groupSupers = 32
	ownFlag     = 1 << 15
)

// sampleAt returns superblock s's rank and offset position.
func (v *Vector) sampleAt(s int) (rank, pos int) {
	g := &v.groups[uint(s)/groupSupers]
	e := v.super[s]
	rank, pos = int(e&(ownFlag-1)), int(g.pos)+int(e>>16)
	if e&ownFlag == 0 {
		rank += int(g.rank)
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
	v.super = make([]uint32, ns)
	v.groups = make([]sample, (ns+groupSupers-1)/groupSupers)
	var it eliasfano.Iter
	next, more := uint64(0), false
	if starts != nil {
		it = starts.Iter()
		next, more = it.Next()
	}
	// rel counts the ones since the start that owns the bit being passed;
	// own says whether that start lies past the group's first bit.
	ones, rel, offPos, own := 0, 0, 0, false
	var cr classReader
	if nb > 0 {
		cr = v.classesFrom(0)
	}
	var g *sample // the group of superblock s
	for s := 0; s < ns; s++ {
		if s%groupSupers == 0 {
			g = &v.groups[s/groupSupers]
			*g = sample{uint64(rel), uint64(offPos)}
			own = false
		}
		r := uint32(rel) - uint32(g.rank)
		if own {
			r = uint32(rel) | ownFlag
		}
		v.super[s] = r&(1<<16-1) | uint32(offPos-int(g.pos))<<16
		// The last start up to the next superblock's first bit owns it.
		end := uint64(s+1) * superBits
		owner := ^uint64(0) // none
		for more && next <= end {
			owner = next
			next, more = it.Next()
		}
		if owner != ^uint64(0) {
			own = true
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
		// The segment's first block, from r0 on: one decode finds the
		// answer there or counts what there is of b.
		c := v.class(blk)
		at := selectInBlock(c, v.offset(c, offPos), b, idx, r0)
		if at < blockBits {
			pos = blk*blockBits + at - from
			return pos, pos < to-from
		}
		before = at - blockBits
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
	return len(v.classes)*64 + len(v.offsets)*64 + len(v.groups)*128 + len(v.super)*32
}

// OffsetStreamBits returns the size of the offset stream alone — the part
// that approaches the information-theoretic minimum B(m,n): the last
// superblock's offset position and its blocks' offsets.
func (v *Vector) OffsetStreamBits() int {
	if len(v.super) == 0 {
		return 0
	}
	s := len(v.super) - 1
	_, pos := v.sampleAt(s)
	cr := v.classesFrom(s * blocksPerSuper)
	for b := s * blocksPerSuper; b < v.numBlocks(); b++ {
		pos += offsetWidth[cr.next()]
	}
	return pos
}

// Reset points the cursor at bit pos of the segment of v that starts at
// start — Iter in place, for a caller that embeds the cursor in its own
// state (Matrix.AppendValues re-points one per run of positions). It
// costs what AccessRankIn does: the class-sum seek and one block decode.
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
	w := decodeBlock(it.class, v.offset(it.class, it.offPos))
	in := p - it.block*blockBits
	it.rank += bits.OnesCount64(w & (1<<uint(in) - 1) >> uint(r0)) // the bits before the segment count for nothing
	it.rest, it.left = w>>uint(in), blockBits-in
}

// Iter is a sequential bit cursor over a segment of a Vector, with an
// O(1) amortized Next; positions and ranks count from the segment's start.
// Beside the bit it carries Rank1 of its position, so a run of bits and
// the ones before it come from one seek.
type Iter struct {
	v      *Vector
	start  int // of the segment
	pos    int // in v
	rank   int // ones in [start, pos)
	block  int // the block rest was decoded from
	class  int
	offPos int
	rest   uint64 // the block's bits from pos on, pos's at bit 0
	left   int    // how many of them: the block's end is pos+left
}

// Rank1 returns the number of 1 bits in the segment before the cursor's
// position.
func (it *Iter) Rank1() int { return it.rank }

// Valid reports whether Next may be called.
func (it *Iter) Valid() bool { return it.pos < it.v.n }

// Next returns the bit at the current position and advances.
func (it *Iter) Next() byte {
	if it.pos >= it.v.n {
		panic("rrr: Iter.Next past end")
	}
	if it.left == 0 {
		it.nextBlock()
	}
	bit := byte(it.rest & 1)
	it.rest >>= 1
	it.left--
	it.pos++
	it.rank += int(bit)
	return bit
}

// NextBits returns the next k bits (k ≤ 64), the first at bit 0, and
// advances past them: a block's worth of Next calls as a few shifts, for a
// caller that consumes bits a word at a time. The k bits must lie inside
// the vector.
func (it *Iter) NextBits(k int) uint64 {
	if k < 0 || k > 64 || it.pos+k > it.v.n {
		panic(fmt.Sprintf("rrr: Iter.NextBits(%d) at %d of %d", k, it.pos, it.v.n))
	}
	var w uint64
	for got := 0; got < k; {
		if it.left == 0 {
			it.nextBlock()
		}
		m := min(it.left, k-got) // < 64: a block holds 63 bits
		chunk := it.rest & (1<<uint(m) - 1)
		w |= chunk << uint(got)
		it.rank += bits.OnesCount64(chunk)
		it.rest >>= uint(m)
		it.left -= m
		it.pos += m
		got += m
	}
	return w
}

// nextBlock decodes the block after the one the cursor has used up.
func (it *Iter) nextBlock() {
	it.offPos += offsetWidth[it.class]
	it.block++
	it.class = it.v.class(it.block)
	it.rest, it.left = decodeBlock(it.class, it.v.offset(it.class, it.offPos)), blockBits
}

// Reader reads a Vector front to back, never decoding a block twice: the
// class fields stream, a block is decoded (decodeBlock) only when a bit in
// it is asked for, and a superblock sample is read only to jump past whole
// superblocks. It serves the two passes that go through a vector in order:
// a structural freeze or merge copies a source's bits out (AppendTo), and
// the trie's page extractor reads runs of bits and their segment-relative
// ranks at non-decreasing positions, one segment after the other (ReadIn)
// — where Iter, re-seeking for every node it opens, would pay a sample and
// a decode per node.
type Reader struct {
	v      *Vector
	pos    int         // the reader's position
	blk    int         // the block the class reader is at
	cr     classReader // at blk's class
	offPos int         // bit position of blk's offset
	// Bits [pos, pos+have) of block blk-1, decoded; when have is 0, pos lies
	// in block blk, which is not.
	buf   uint64
	have  int
	start int // the segment ReadIn last named (0 before it does)
	rank  int // ones in [start, pos)
}

// Reader returns a Reader at bit 0.
func (v *Vector) Reader() Reader {
	r := Reader{v: v}
	if v.n > 0 {
		r.cr = v.classesFrom(0)
	}
	return r
}

// Pos returns the reader's position: the next bit AppendTo delivers, and
// where ReadIn may read from.
func (r *Reader) Pos() int { return r.pos }

// AppendTo appends the next n bits to dst and returns how many of them
// are set; n must not exceed Len() - Pos().
func (r *Reader) AppendTo(dst *bitstr.Builder, n int) (ones int) {
	if n < 0 || n > r.v.n-r.pos {
		panic(fmt.Sprintf("rrr: Reader: %d bits requested at %d of %d", n, r.pos, r.v.n))
	}
	for n > 0 {
		if r.have == 0 {
			r.decode()
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
	r.rank += ones
	return ones
}

// ReadIn is a forward read of a segment: the k bits (1 ≤ k ≤ 64) of the
// segment that starts at start from its bit pos on, the first at bit 0,
// and the ones in the segment before pos; the reader moves past them.
// Reads must not move back — a segment starts at or past where the last
// read ended, and inside one a read starts there too. Reaching pos is a
// forward skip: inside the decoded block a shift, past it a walk over
// class fields that sums them as the ones between, and into a later
// superblock that begins inside the segment a jump, the sample being the
// rank. Entering a segment walks — or jumps — to its start counting
// nothing. The bits may run past the segment's end.
func (r *Reader) ReadIn(start, pos, k int) (w uint64, rank int) {
	p := start + pos
	if pos < 0 || k < 1 || k > 64 || p+k > r.v.n || p < r.pos || start < r.start {
		panic(fmt.Sprintf("rrr: Reader.ReadIn(%d+%d, %d) behind %d or out of range [0,%d)", start, pos, k, r.pos, r.v.n))
	}
	if start != r.start {
		r.skip(start)
		r.start, r.rank = start, 0
	}
	r.count(p)
	rank = r.rank
	for got := 0; got < k; {
		if r.have == 0 {
			r.decode()
		}
		m := min(r.have, k-got) // < 64: a block holds 63 bits
		chunk := r.buf & (1<<uint(m) - 1)
		w |= chunk << uint(got)
		r.rank += bits.OnesCount64(chunk)
		r.buf >>= uint(m)
		r.have -= m
		r.pos += m
		got += m
	}
	return w, rank
}

// decode decodes block blk, the one pos lies in, keeping its bits from pos
// on.
func (r *Reader) decode() {
	var w uint64
	switch c := r.cr.next(); c {
	case 0:
	case blockBits:
		w = 1<<blockBits - 1
	default:
		w = decodeBlock(c, r.v.offset(c, r.offPos))
		r.offPos += offsetWidth[c]
	}
	in := r.pos - r.blk*blockBits
	r.blk++
	r.buf, r.have = w>>uint(in), min(r.blk*blockBits, r.v.n)-r.pos
}

// jump moves the reader to the first bit of superblock s, undecoded, and
// returns the sample's rank.
func (r *Reader) jump(s int) (rank int) {
	rank, r.offPos = r.v.sampleAt(s)
	r.blk = s * blocksPerSuper
	r.cr = r.v.classesFrom(r.blk)
	r.pos, r.have = r.blk*blockBits, 0
	return rank
}

// skip moves the reader forward to p, counting nothing.
func (r *Reader) skip(p int) {
	if d := p - r.pos; d < r.have {
		r.buf >>= uint(d)
		r.have -= d
		r.pos = p
		return
	}
	r.pos += r.have
	r.have = 0
	b := p / blockBits
	if s := b / blocksPerSuper; s > r.blk/blocksPerSuper {
		r.jump(s)
	}
	for ; r.blk < b; r.blk++ {
		r.offPos += offsetWidth[r.cr.next()]
	}
	r.pos = p
}

// count moves the reader forward to p, a bit of the segment at r.start,
// keeping r.rank the ones in [r.start, p).
func (r *Reader) count(p int) {
	if d := p - r.pos; d < r.have {
		r.rank += bits.OnesCount64(r.buf & (1<<uint(d) - 1))
		r.buf >>= uint(d)
		r.have -= d
		r.pos = p
		return
	}
	b := p / blockBits
	// A superblock that begins inside the segment is owned by it: its
	// sample counts from r.start, whatever lies before.
	if s := b / blocksPerSuper; s > r.blk/blocksPerSuper && s*superBits >= r.start {
		r.rank = r.jump(s)
	} else {
		if r.have == 0 && r.pos > r.blk*blockBits && b > r.blk {
			r.decode() // the rest of the block a skip stopped in counts
		}
		if r.have > 0 {
			r.rank += bits.OnesCount64(r.buf)
			r.pos += r.have
			r.have = 0
		}
	}
	for ; r.blk < b; r.blk++ {
		c := r.cr.next()
		r.rank += c
		r.offPos += offsetWidth[c]
		r.pos = (r.blk + 1) * blockBits
	}
	if p > r.pos {
		r.decode()
		d := p - r.pos
		r.rank += bits.OnesCount64(r.buf & (1<<uint(d) - 1))
		r.buf >>= uint(d)
		r.have -= d
		r.pos = p
	}
}

// selectorNear is how many blocks a Selector steps forward by summing
// class fields before it gives the target up as far and re-seeks through
// the superblock samples (DESIGN.md §9 records the measurement).
const selectorNear = 32

// Selector answers SelectIn for one bit value and one segment over a
// non-decreasing series of indices — what enumerating a wavelet-trie
// node's elements asks of every bitvector on the node's root path. It
// remembers the block the last answer fell in, decoded: a target in the
// same block is one Select64 on it, a target a few blocks on is reached by
// summing class fields (no offset is read on the way) and one decode, and
// only a far target — or a smaller one; any index is answered — pays the
// sampled search (jump), once.
type Selector struct {
	v        *Vector
	b        byte
	from, to int         // the segment
	blk      int         // the remembered block; valid iff cr.words != nil
	class    int         // its class
	offPos   int         // bit position of its offset
	before   int         // occurrences of b in [from, blk*blockBits); in the segment's first block, minus those it holds before from
	cr       classReader // at block blk+1's class
	occ      uint64      // blk's occurrences of b as set bits, once decoded
	decoded  bool
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
	near := s.cr.words != nil && idx >= s.before
	for steps := 0; near && idx-s.before >= holds(s.class, s.b); steps++ {
		if steps == selectorNear || (s.blk+1)*blockBits >= s.to {
			near = false
			break
		}
		s.before += holds(s.class, s.b)
		s.offPos += offsetWidth[s.class]
		s.blk++
		s.class = s.cr.next()
		s.decoded = false
	}
	if !near {
		s.jump(idx)
	}
	if !s.decoded {
		s.occ = occurrences(decodeBlock(s.class, s.v.offset(s.class, s.offPos)), s.b)
		s.decoded = true
	}
	return s.blk*blockBits + bitvec.Select64(s.occ, idx-s.before) - s.from
}

// jump makes the block that holds occurrence idx the remembered one, not
// yet decoded — but for the segment's first block, which is decoded to
// learn what it holds of b from the segment's start on.
func (s *Selector) jump(idx int) {
	v := s.v
	blk, offPos, before, r0 := v.locate(s.b, idx, s.from, s.to)
	s.decoded = false
	if r0 > 0 {
		c := v.class(blk)
		occ := occurrences(decodeBlock(c, v.offset(c, offPos)), s.b)
		skipped := bits.OnesCount64(occ & (1<<uint(r0) - 1))
		if idx < holds(c, s.b)-skipped {
			before, s.occ, s.decoded = -skipped, occ, true
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
