// Package appendbv implements the append-only compressed bitvector of
// paper §4.1 (Theorem 4.5): Access, Rank and Select in constant time and
// Append in amortized constant time, in nH₀(β) + o(n) bits.
//
// Layout, following the theorem's proof:
//
//   - the stream is split into fixed-size segments of L bits; each full
//     segment is sealed into an immutable RRR dictionary (the Fˆᵢ of the
//     proof);
//   - the most recent, incomplete segment is the small mutable bitvector
//     B′ of Lemma 4.6, kept uncompressed with rank samples, so Append is
//     a word write plus counter updates;
//   - the partial sums sˆᵢ over segment popcounts are append-only, so a
//     plain prefix array (grown only at seal time) plays the role of the
//     fusion-tree/partial-sum bitvectors: O(1) Rank addressing and
//     O(log #segments) Select (see DESIGN.md, substitutions).
//
// Init(b, n) — required by the Wavelet Trie when a node split materializes
// a constant bitvector (Remark 4.2) — is implemented exactly as §4
// suggests for the append-only case: "adding a left offset in each
// bitvector", i.e. a virtual run of n copies of b stored in O(log n) bits.
package appendbv

import (
	"fmt"
	"math/bits"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/rrr"
)

// SegmentBits is the sealed-segment size L. With L = 2^14 the directory
// overhead is 128/L ≈ 0.8% and seal cost stays micro-scale, matching the
// o(n) redundancy target of Theorem 4.5.
const SegmentBits = 1 << 14

const tailSuperWords = 8 // rank-sample spacing in the mutable tail

// Vector is an append-only bitvector. The zero value is an empty vector
// ready for use. Not safe for concurrent mutation.
type Vector struct {
	initBit byte // value of the virtual leading run
	initLen int  // length of the virtual leading run

	segs     []*rrr.Vector // sealed segments, SegmentBits each
	cumOnes  []int         // cumOnes[i] = ones in segs[:i]; len = len(segs)+1
	tail     []uint64      // mutable final segment
	tailLen  int
	tailOnes int
	// tailSuper[k] = ones in tail words [0, k*tailSuperWords); append-only.
	tailSuper []int32
}

// New returns an empty append-only bitvector.
func New() *Vector {
	return &Vector{cumOnes: []int{0}, tailSuper: []int32{0}}
}

// NewInit returns a bitvector initialized to n copies of bit b, the
// Init(b, n) operation of §4. It costs O(1) words regardless of n.
func NewInit(b byte, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("appendbv: NewInit: negative length %d", n))
	}
	v := New()
	v.initBit = b & 1
	v.initLen = n
	return v
}

// Len returns the number of bits.
func (v *Vector) Len() int {
	return v.initLen + len(v.segs)*SegmentBits + v.tailLen
}

// Ones returns the number of 1 bits.
func (v *Vector) Ones() int {
	ones := v.cumOnes[len(v.segs)] + v.tailOnes
	if v.initBit == 1 {
		ones += v.initLen
	}
	return ones
}

// Zeros returns the number of 0 bits.
func (v *Vector) Zeros() int { return v.Len() - v.Ones() }

// Append appends one bit in amortized constant time.
func (v *Vector) Append(bit byte) {
	if v.tailLen&63 == 0 {
		if v.tailLen>>6%tailSuperWords == 0 && v.tailLen > 0 {
			v.tailSuper = append(v.tailSuper, int32(v.tailOnes))
		}
		v.tail = append(v.tail, 0)
	}
	if bit != 0 {
		v.tail[v.tailLen>>6] |= 1 << (uint(v.tailLen) & 63)
		v.tailOnes++
	}
	v.tailLen++
	if v.tailLen == SegmentBits {
		v.seal()
	}
}

// seal compresses the full tail into an RRR segment.
func (v *Vector) seal() {
	seg := rrr.FromWords(v.tail, SegmentBits)
	v.segs = append(v.segs, seg)
	v.cumOnes = append(v.cumOnes, v.cumOnes[len(v.cumOnes)-1]+seg.Ones())
	v.tail = v.tail[:0]
	v.tailLen = 0
	v.tailOnes = 0
	v.tailSuper = v.tailSuper[:1]
}

// Access returns bit pos.
func (v *Vector) Access(pos int) byte {
	if pos < 0 || pos >= v.Len() {
		panic(fmt.Sprintf("appendbv: Access(%d) out of range [0,%d)", pos, v.Len()))
	}
	if pos < v.initLen {
		return v.initBit
	}
	pos -= v.initLen
	if seg := pos / SegmentBits; seg < len(v.segs) {
		return v.segs[seg].Access(pos % SegmentBits)
	}
	pos -= len(v.segs) * SegmentBits
	return byte(v.tail[pos>>6]>>(uint(pos)&63)) & 1
}

// Rank1 returns the number of 1 bits in [0, pos). pos may equal Len().
func (v *Vector) Rank1(pos int) int {
	if pos < 0 || pos > v.Len() {
		panic(fmt.Sprintf("appendbv: Rank1(%d) out of range [0,%d]", pos, v.Len()))
	}
	r := 0
	if v.initBit == 1 {
		if pos <= v.initLen {
			return pos
		}
		r = v.initLen
	} else if pos <= v.initLen {
		return 0
	}
	pos -= v.initLen
	seg := pos / SegmentBits
	if seg >= len(v.segs) {
		// Position lands in the tail.
		r += v.cumOnes[len(v.segs)]
		return r + v.tailRank1(pos-len(v.segs)*SegmentBits)
	}
	return r + v.cumOnes[seg] + v.segs[seg].Rank1(pos%SegmentBits)
}

// tailRank1 counts ones in tail bits [0, pos).
func (v *Vector) tailRank1(pos int) int {
	if pos == v.tailLen {
		return v.tailOnes
	}
	wi := pos >> 6
	super := wi / tailSuperWords
	r := int(v.tailSuper[super])
	for i := super * tailSuperWords; i < wi; i++ {
		r += bits.OnesCount64(v.tail[i])
	}
	if off := uint(pos) & 63; off != 0 {
		r += bits.OnesCount64(v.tail[wi] & (1<<off - 1))
	}
	return r
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
func (v *Vector) Select1(idx int) int {
	ones := v.Ones()
	if idx < 0 || idx >= ones {
		panic(fmt.Sprintf("appendbv: Select1(%d) out of range [0,%d)", idx, ones))
	}
	if v.initBit == 1 {
		if idx < v.initLen {
			return idx
		}
		idx -= v.initLen
	}
	// Binary search sealed segments by cumulative ones.
	lo, hi := 0, len(v.segs)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if v.cumOnes[mid] <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < len(v.segs) && v.cumOnes[lo+1] > idx {
		return v.initLen + lo*SegmentBits + v.segs[lo].Select1(idx-v.cumOnes[lo])
	}
	// In the tail.
	idx -= v.cumOnes[len(v.segs)]
	return v.initLen + len(v.segs)*SegmentBits + v.tailSelect(1, idx)
}

// Select0 returns the position of the idx-th (0-based) 0 bit.
func (v *Vector) Select0(idx int) int {
	zeros := v.Zeros()
	if idx < 0 || idx >= zeros {
		panic(fmt.Sprintf("appendbv: Select0(%d) out of range [0,%d)", idx, zeros))
	}
	if v.initBit == 0 {
		if idx < v.initLen {
			return idx
		}
		idx -= v.initLen
	}
	segZeros := func(i int) int { return i*SegmentBits - v.cumOnes[i] }
	lo, hi := 0, len(v.segs)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if segZeros(mid) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < len(v.segs) && segZeros(lo+1) > idx {
		return v.initLen + lo*SegmentBits + v.segs[lo].Select0(idx-segZeros(lo))
	}
	idx -= segZeros(len(v.segs))
	return v.initLen + len(v.segs)*SegmentBits + v.tailSelect(0, idx)
}

// Select returns the position of the idx-th occurrence of bit b.
func (v *Vector) Select(b byte, idx int) int {
	if b == 0 {
		return v.Select0(idx)
	}
	return v.Select1(idx)
}

// tailSelect finds the idx-th occurrence of bit b within the tail.
func (v *Vector) tailSelect(b byte, idx int) int {
	rem := idx
	nw := (v.tailLen + 63) >> 6
	for wi := 0; wi < nw; wi++ {
		w := v.tail[wi]
		if b == 0 {
			w = ^w
			if (wi+1)*64 > v.tailLen {
				w &= 1<<(uint(v.tailLen)&63) - 1
			}
		}
		c := bits.OnesCount64(w)
		if rem < c {
			return wi*64 + bitvec.Select64(w, rem)
		}
		rem -= c
	}
	panic("appendbv: tailSelect: index beyond tail")
}

// SizeBits returns the size of the succinct encoding in bits: sealed RRR
// segments, the raw tail, the partial-sum directory and the O(log n) init
// run descriptor.
func (v *Vector) SizeBits() int {
	s := 64 + 8 // init run descriptor
	for _, seg := range v.segs {
		s += seg.SizeBits()
	}
	s += len(v.tail)*64 + len(v.tailSuper)*32
	s += len(v.cumOnes) * 64
	return s
}

// AppendTo appends every bit of the vector to dst and returns how many of
// them are set: the Init run as one run, each sealed segment a decoded
// block at a time, the tail as raw words. The count is of the bits copied,
// not read off the directory — on a vector decoded from corrupt bytes the
// two can differ, and a caller that copies the bits can tell.
func (v *Vector) AppendTo(dst *bitstr.Builder) (ones int) {
	dst.AppendRun(v.initBit, v.initLen)
	if v.initBit == 1 {
		ones = v.initLen
	}
	for _, seg := range v.segs {
		rd := seg.Reader()
		ones += rd.AppendTo(dst, SegmentBits)
	}
	dst.AppendWords(v.tail, v.tailLen)
	return ones + v.tailOnes
}

// Iter returns a sequential bit cursor starting at pos, with O(1)
// amortized Next (used by the §5 sequential-access algorithm). It is a
// value, so a walk that keeps one cursor per node holds them in place.
func (v *Vector) Iter(pos int) Iter {
	if pos < 0 || pos > v.Len() {
		panic(fmt.Sprintf("appendbv: Iter(%d) out of range [0,%d]", pos, v.Len()))
	}
	it := Iter{v: v, pos: pos}
	it.sync()
	return it
}

// Iter is a sequential cursor over a Vector. The vector must not be
// appended to while an iterator is in use.
type Iter struct {
	v     *Vector
	pos   int
	inSeg bool     // inside a sealed segment, which seg walks
	seg   rrr.Iter // valid while inSeg
}

func (it *Iter) sync() {
	p := it.pos - it.v.initLen
	if it.inSeg = p >= 0 && p < len(it.v.segs)*SegmentBits; it.inSeg {
		it.seg.Reset(it.v.segs[p/SegmentBits], 0, p%SegmentBits)
	}
}

// Valid reports whether Next may be called.
func (it *Iter) Valid() bool { return it.pos < it.v.Len() }

// Next returns the current bit and advances.
func (it *Iter) Next() byte {
	if !it.Valid() {
		panic("appendbv: Iter.Next past end")
	}
	var b byte
	switch {
	case it.pos < it.v.initLen:
		b = it.v.initBit
	case it.inSeg:
		b = it.seg.Next()
	default:
		p := it.pos - it.v.initLen - len(it.v.segs)*SegmentBits
		b = byte(it.v.tail[p>>6]>>(uint(p)&63)) & 1
	}
	it.pos++
	if it.inSeg && !it.seg.Valid() {
		it.sync()
	} else if it.pos == it.v.initLen {
		it.sync()
	}
	return b
}
