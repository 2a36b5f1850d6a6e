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
// bits: a run of zeros costs 6 bits per 63. Every 32 blocks a superblock
// sample records the cumulative rank and the bit position of the block's
// offset in the offset stream, so queries add up at most one superblock of
// class fields (several per word read) and visit one block body. A point
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
package rrr

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
)

const (
	blockBits      = 63
	classBits      = 6
	blocksPerSuper = 32
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

// rankInBlock returns the number of set bits before position r of the
// block (class, offset) and the bit at r, for r in [0, 63). It stops at r
// and never builds the block.
func rankInBlock(class int, offset uint64, r int) (rank int, bit byte) {
	k, offset, flip := sparser(class, offset)
	ones := k
	i := 0
	if k > branchyClass {
		c := choose[k][blockBits-1]
		for ; i < r && k > 0; i++ {
			k, offset, c, _ = denseStep(k, blockBits-2-i, offset, c)
		}
	}
	for ; i < r && k > 0; i++ {
		if c := choose[k][blockBits-1-i]; offset >= c {
			offset -= c
			k--
		}
	}
	ones -= k
	if k > 0 && offset >= choose[k][blockBits-1-r] {
		bit = 1
	}
	if flip == 1 {
		return r - ones, bit ^ 1
	}
	return ones, bit
}

// selectInBlock returns the position of the j-th (0-based) bit equal to b
// in the block (class, offset), which must hold more than j of them.
func selectInBlock(class int, offset uint64, b byte, j int) int {
	k, offset, flip := sparser(class, offset)
	want := uint64(b ^ flip) // the walked form's bit value being counted
	i := 0
	if k > branchyClass {
		c := choose[k][blockBits-1]
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
	return i + j // only zeros of the walked form remain
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
	// [s*32,(s+1)*32)), super[s].rank is the number of ones before it and
	// super[s].pos the bit position of its first offset in the stream; a
	// closing entry holds the totals. One entry is one cache line touch.
	super []sample
}

type sample struct{ rank, pos uint64 }

// buildSuper derives the superblock directory and the ones count from
// the class fields — at construction and again on decode, so a loaded
// vector can never carry a directory inconsistent with its payload.
func (v *Vector) buildSuper() {
	nb := v.numBlocks()
	v.super = make([]sample, (nb+blocksPerSuper-1)/blocksPerSuper+1)
	ones, offPos := 0, 0
	if nb > 0 {
		cr := v.classesFrom(0)
		for b := 0; b < nb; b++ {
			if b%blocksPerSuper == 0 {
				v.super[b/blocksPerSuper] = sample{uint64(ones), uint64(offPos)}
			}
			c := cr.next()
			ones += c
			offPos += offsetWidth[c]
		}
	}
	v.super[len(v.super)-1] = sample{uint64(ones), uint64(offPos)}
	v.ones = ones
}

// FromWords compresses the first n bits of words (bit i at word i/64,
// offset i%64).
func FromWords(words []uint64, n int) *Vector {
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
	v.buildSuper()
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
// offset stream and the rank before it, summing the class fields from the
// enclosing superblock's sample.
func (v *Vector) seek(b int) (class, offPos, rank int) {
	s := b / blocksPerSuper
	offPos = int(v.super[s].pos)
	rank = int(v.super[s].rank)
	cr := v.classesFrom(s * blocksPerSuper)
	for i := s * blocksPerSuper; i < b; i++ {
		c := cr.next()
		offPos += offsetWidth[c]
		rank += c
	}
	return cr.next(), offPos, rank
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
// visit — the pair a wavelet-trie Access needs at every level.
func (v *Vector) AccessRank1(pos int) (bit byte, rank int) {
	if pos < 0 || pos >= v.n {
		panic(fmt.Sprintf("rrr: Access(%d) out of range [0,%d)", pos, v.n))
	}
	b := pos / blockBits
	c, offPos, rank := v.seek(b)
	switch c {
	case 0:
		return 0, rank
	case blockBits:
		return 1, rank + pos - b*blockBits
	}
	in, bit := rankInBlock(c, v.offset(c, offPos), pos-b*blockBits)
	return bit, rank + in
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
func (v *Vector) Select1(idx int) int { return v.SelectIn(1, idx, 0, v.n) }

// Select0 returns the position of the idx-th (0-based) 0 bit.
func (v *Vector) Select0(idx int) int { return v.SelectIn(0, idx, 0, v.n) }

// SelectIn returns the position of the idx-th (0-based) occurrence of bit
// b, which the caller knows to lie in positions [from, to) — a wavelet
// trie node knows its segment. The superblock search is confined to that
// range: for a short segment there is nothing left to search.
func (v *Vector) SelectIn(b byte, idx, from, to int) int {
	total := v.ones
	if b == 0 {
		total = v.n - v.ones
	}
	if idx < 0 || idx >= total || from < 0 || to > v.n || from >= to {
		panic(fmt.Sprintf("rrr: Select%d(%d) in [%d,%d) out of range (%d such bits in [0,%d))", b, idx, from, to, total, v.n))
	}
	// before(s) = occurrences of b before superblock s.
	before := func(s int) int {
		if b == 1 {
			return int(v.super[s].rank)
		}
		return min(s*superBits, v.n) - int(v.super[s].rank)
	}
	// Last superblock in range whose prefix count is <= idx.
	lo, hi := from/superBits, (to-1)/superBits
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if before(mid) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := idx - before(lo)
	offPos := int(v.super[lo].pos)
	cr := v.classesFrom(lo * blocksPerSuper)
	for blk := lo * blocksPerSuper; ; blk++ {
		// The last block's padding counts as zeros here, but idx < total
		// keeps the answer among the valid bits, which come first.
		c := cr.next()
		have := c
		if b == 0 {
			have = blockBits - c
		}
		if rem < have {
			return blk*blockBits + selectInBlock(c, v.offset(c, offPos), b, rem)
		}
		rem -= have
		offPos += offsetWidth[c]
	}
}

// Select returns the position of the idx-th occurrence of bit b.
func (v *Vector) Select(b byte, idx int) int {
	if b == 0 {
		return v.Select0(idx)
	}
	return v.Select1(idx)
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
	it.Reset(v, pos)
	return it
}

// Reset points the cursor at bit pos of v — Iter in place, for a caller
// that embeds the cursor in its own state (a wavelet-trie walk holds one
// per open node). It costs what AccessRank1 does: the class-sum seek and
// a block walk as far as pos.
func (it *Iter) Reset(v *Vector, pos int) {
	if pos < 0 || pos > v.n {
		panic(fmt.Sprintf("rrr: Iter(%d) out of range [0,%d]", pos, v.n))
	}
	*it = Iter{v: v, pos: pos, rank: v.ones}
	if pos < v.n {
		it.block = pos / blockBits
		it.class, it.offPos, it.rank = v.seek(it.block)
		it.w = startWalk(it.class, v.offset(it.class, it.offPos))
		it.rank += it.w.run(1, blockBits+1, pos-it.block*blockBits)
	}
}

// Iter is a sequential bit cursor over a Vector. Beside the bit it carries
// Rank1 of its position, so a wavelet-trie walk reads a node's branch bit
// and the position in the child from the one block visit.
type Iter struct {
	v      *Vector
	pos    int
	rank   int // Rank1(pos)
	block  int // the block w walks
	class  int
	offPos int
	w      blockWalk
}

// Pos returns the position of the bit that Next will return.
func (it *Iter) Pos() int { return it.pos }

// Rank1 returns the number of 1 bits before Pos.
func (it *Iter) Rank1() int { return it.rank }

// Valid reports whether Next may be called.
func (it *Iter) Valid() bool { return it.pos < it.v.n }

// Seek moves the cursor to bit pos: further on in the block it is
// walking, by walking there; anywhere else, at the cost of a new cursor.
func (it *Iter) Seek(pos int) {
	if pos < it.pos || pos >= (it.block+1)*blockBits || pos >= it.v.n {
		it.Reset(it.v, pos)
		return
	}
	it.rank += it.w.run(1, blockBits+1, it.w.i+pos-it.pos)
	it.pos = pos
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

// Selector answers Select for one bit value over a non-decreasing series
// of indices — what enumerating a wavelet-trie node's elements asks of
// every bitvector on the node's root path. It remembers the block the last
// answer fell in and how far into it: a target in the same block continues
// the block walk from there, a target a few blocks on is reached by
// summing class fields (no offset is read on the way), and only a far
// target — or a smaller one; any index is answered — pays the sampled
// SelectIn.
type Selector struct {
	v      *Vector
	b      byte
	blk    int         // the remembered block; valid iff cr.words != nil
	class  int         // its class
	offPos int         // bit position of its offset
	before int         // occurrences of b before it
	cr     classReader // at block blk+1's class
	seen   int         // occurrences of b that w has passed
	w      blockWalk   // over blk; started iff w.i > 0
}

// Selector returns a Selector for occurrences of bit b.
func (v *Vector) Selector(b byte) Selector { return Selector{v: v, b: b} }

// count returns how many occurrences of b a block of class c holds (the
// last block's padding counts as zeros, past every valid answer).
func (s *Selector) count(c int) int {
	if s.b == 0 {
		return blockBits - c
	}
	return c
}

// Select returns the position of the idx-th (0-based) occurrence of the
// selector's bit, which the caller knows to lie in [from, to), like
// SelectIn.
func (s *Selector) Select(idx, from, to int) int {
	if s.cr.words == nil || idx < s.before+s.seen {
		return s.jump(idx, from, to)
	}
	rem := idx - s.before
	have := s.count(s.class)
	for steps := 0; rem >= have; steps++ {
		if steps == selectorNear || (s.blk+1)*blockBits >= to {
			return s.jump(idx, from, to)
		}
		rem -= have
		s.before += have
		s.offPos += offsetWidth[s.class]
		s.blk++
		s.class = s.cr.next()
		s.seen, s.w.i = 0, 0
		have = s.count(s.class)
	}
	if s.w.i == 0 {
		s.w = startWalk(s.class, s.v.offset(s.class, s.offPos))
	}
	s.seen += s.w.run(s.b, rem+1-s.seen, blockBits)
	return s.blk*blockBits + s.w.i - 1
}

// jump answers through SelectIn and remembers the block it landed in, not
// yet walked: a later target there walks from the block's start.
func (s *Selector) jump(idx, from, to int) int {
	pos := s.v.SelectIn(s.b, idx, from, to)
	s.blk = pos / blockBits
	var rank int
	s.class, s.offPos, rank = s.v.seek(s.blk)
	s.before = rank
	if s.b == 0 {
		s.before = s.blk*blockBits - rank
	}
	s.cr = s.v.classesFrom(s.blk)
	s.cr.next()
	s.seen, s.w.i = 0, 0
	return pos
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
