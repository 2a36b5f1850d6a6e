// Package bitvec implements a plain (uncompressed) static bitvector with
// constant-time Rank and logarithmic-time Select — a Fully Indexed
// Dictionary in the terminology of the paper (§2), without compression.
//
// It serves three roles in the repository:
//
//   - the raw bit storage that RRR blocks are carved from,
//   - the mutable tail buffer of the append-only bitvector (§4.1), and
//   - the simple, obviously-correct oracle that the compressed bitvectors
//     are differentially tested against.
//
// Rank uses one level of 512-bit superblock counters plus word popcounts;
// Select binary-searches the superblock counters and finishes with a
// broadword in-word search (Select64). Space overhead is 32/512 = 6.25%
// over the raw bits. Vectors whose Select1 sits on a query path (the
// Elias–Fano high halves) add a sampled hint table with IndexSelect1 —
// the position of every selectSample-th one — so that a select starts at
// the hinted word and walks forward, searching superblocks only where
// the ones are sparse.
package bitvec

import (
	"fmt"
	"math/bits"
)

// wordsPerSuper is the number of 64-bit words per rank superblock.
const wordsPerSuper = 8

// superBits is the superblock size in bits.
const superBits = wordsPerSuper * 64

// Vector is an immutable bitvector with Rank/Select support. Construct one
// with a Builder or FromWords. The zero value is an empty vector.
type Vector struct {
	words []uint64
	n     int
	ones  int
	// super[i] = number of 1s in bits [0, i*superBits).
	super []int32
	// sel1, when built by IndexSelect1, samples Select1: sel1[j] is the
	// position of the (j*selectSample)-th one, with n as a closing
	// sentinel, so the idx-th one lies in [sel1[j], sel1[j+1]).
	sel1 []int32
}

// selectSample is the number of ones between two Select1 hints.
const selectSample = 128

// FromWords builds a Vector over n bits taken LSB-first from words (bit i
// is bit i%64 of words[i/64]). Bits at positions >= n are ignored. The
// input is copied.
func FromWords(words []uint64, n int) *Vector {
	if n < 0 || n > len(words)*64 {
		panic(fmt.Sprintf("bitvec: FromWords: n=%d out of range for %d words", n, len(words)))
	}
	nw := (n + 63) / 64
	w := make([]uint64, nw)
	copy(w, words[:nw])
	if r := uint(n) & 63; r != 0 && nw > 0 {
		w[nw-1] &= (1 << r) - 1
	}
	v := &Vector{words: w, n: n}
	v.buildRank()
	return v
}

// FromWordsShared is FromWords without the copy: the Vector aliases
// words, which must hold exactly the ⌈n/64⌉ words of the n bits, must not
// be modified afterwards and must outlive the Vector (a slice of a
// read-only mapping qualifies, so the tail is not masked: bits past n
// must already be zero for Ones, Select and NextOne to be right; Access
// and Rank at positions ≤ n never read them).
func FromWordsShared(words []uint64, n int) *Vector {
	if n < 0 || len(words) != (n+63)/64 {
		panic(fmt.Sprintf("bitvec: FromWordsShared: %d words for n=%d", len(words), n))
	}
	v := &Vector{words: words, n: n}
	v.buildRank()
	return v
}

func (v *Vector) buildRank() {
	ns := (len(v.words) + wordsPerSuper - 1) / wordsPerSuper
	v.super = make([]int32, ns+1)
	ones := 0
	for i, w := range v.words {
		if i%wordsPerSuper == 0 {
			v.super[i/wordsPerSuper] = int32(ones)
		}
		ones += bits.OnesCount64(w)
	}
	v.super[ns] = int32(ones)
	v.ones = ones
}

// IndexSelect1 builds the Select1 hint table (32/selectSample bits per
// one). It is for vectors that serve Select1 on a hot path; call it once,
// before the vector is shared. Answers never change — only where the
// search starts.
func (v *Vector) IndexSelect1() {
	if v.sel1 != nil {
		return
	}
	v.sel1 = make([]int32, 0, v.ones/selectSample+2)
	seen := 0
	for wi, w := range v.words {
		c := bits.OnesCount64(w)
		for next := len(v.sel1) * selectSample; next < seen+c; next += selectSample {
			v.sel1 = append(v.sel1, int32(wi*64+Select64(w, next-seen)))
		}
		seen += c
	}
	v.sel1 = append(v.sel1, int32(v.n))
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.n }

// Ones returns the number of 1 bits.
func (v *Vector) Ones() int { return v.ones }

// Zeros returns the number of 0 bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Access returns bit pos.
func (v *Vector) Access(pos int) byte {
	if pos < 0 || pos >= v.n {
		panic(fmt.Sprintf("bitvec: Access(%d) out of range [0,%d)", pos, v.n))
	}
	return byte(v.words[pos>>6]>>(uint(pos)&63)) & 1
}

// Rank1 returns the number of 1 bits in [0, pos). pos may equal Len().
func (v *Vector) Rank1(pos int) int {
	if pos < 0 || pos > v.n {
		panic(fmt.Sprintf("bitvec: Rank1(%d) out of range [0,%d]", pos, v.n))
	}
	wi := pos >> 6
	r := int(v.super[wi/wordsPerSuper])
	for i := wi &^ (wordsPerSuper - 1); i < wi; i++ {
		r += bits.OnesCount64(v.words[i])
	}
	if off := uint(pos) & 63; off != 0 {
		r += bits.OnesCount64(v.words[wi] & (1<<off - 1))
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

// Select1 returns the position of the idx-th 1 bit (0-based): the returned
// p satisfies Access(p)==1 and Rank1(p)==idx. It panics if idx is out of
// range.
func (v *Vector) Select1(idx int) int {
	if idx < 0 || idx >= v.ones {
		panic(fmt.Sprintf("bitvec: Select1(%d) out of range [0,%d)", idx, v.ones))
	}
	// The answer lies in [from, to), with `skipped` ones before from.
	from, to, skipped := 0, v.n, 0
	if v.sel1 != nil {
		j := idx / selectSample
		from, to, skipped = int(v.sel1[j]), int(v.sel1[j+1]), j*selectSample
	}
	wi := from >> 6
	rem := idx - skipped + bits.OnesCount64(v.words[wi]&(1<<(uint(from)&63)-1))
	if to-from > superBits {
		// Sparse here: binary search the last superblock in range whose
		// prefix count is <= idx, and walk from its start instead.
		lo, hi := from/superBits, (to-1)/superBits
		for lo < hi {
			mid := int(uint(lo+hi+1) >> 1)
			if int(v.super[mid]) <= idx {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if lo > from/superBits {
			wi, rem = lo*wordsPerSuper, idx-int(v.super[lo])
		}
	}
	for ; ; wi++ {
		c := bits.OnesCount64(v.words[wi])
		if rem < c {
			return wi*64 + Select64(v.words[wi], rem)
		}
		rem -= c
	}
}

// Select0 returns the position of the idx-th 0 bit (0-based).
func (v *Vector) Select0(idx int) int {
	zeros := v.n - v.ones
	if idx < 0 || idx >= zeros {
		panic(fmt.Sprintf("bitvec: Select0(%d) out of range [0,%d)", idx, zeros))
	}
	// Binary search on zero-prefix counts derived from super. Every
	// superblock but the last is full, so i*superBits never overshoots n
	// for the candidates compared.
	lo, hi := 0, len(v.super)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if mid*superBits-int(v.super[mid]) <= idx {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := idx - (lo*superBits - int(v.super[lo]))
	// Bits past n in the final word read as 1 after the complement, but
	// idx < zeros keeps the answer below them.
	for wi := lo * wordsPerSuper; ; wi++ {
		w := ^v.words[wi]
		c := bits.OnesCount64(w)
		if rem < c {
			return wi*64 + Select64(w, rem)
		}
		rem -= c
	}
}

// NextOne returns the position of the first 1 bit at or after pos, or
// Len() when there is none.
func (v *Vector) NextOne(pos int) int {
	if pos >= v.n {
		return v.n
	}
	wi := pos >> 6
	w := v.words[wi] >> (uint(pos) & 63) << (uint(pos) & 63)
	for w == 0 {
		wi++
		if wi == len(v.words) {
			return v.n
		}
		w = v.words[wi]
	}
	return wi*64 + bits.TrailingZeros64(w)
}

// Select returns the position of the idx-th occurrence of bit b.
func (v *Vector) Select(b byte, idx int) int {
	if b == 0 {
		return v.Select0(idx)
	}
	return v.Select1(idx)
}

// Words exposes the packed bits (LSB-first per word). The slice must not
// be modified.
func (v *Vector) Words() []uint64 { return v.words }

// SizeBits returns the memory footprint in bits of the succinct encoding:
// the raw bits plus the rank directory and, when built, the Select1 hints.
func (v *Vector) SizeBits() int {
	return len(v.words)*64 + len(v.super)*32 + len(v.sel1)*32
}

// A Builder accumulates bits and produces an immutable Vector. The zero
// value is ready to use.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for sizeHint bits.
func NewBuilder(sizeHint int) *Builder {
	return &Builder{words: make([]uint64, 0, (sizeHint+63)/64)}
}

// Len returns the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// AppendBit appends one bit.
func (b *Builder) AppendBit(bit byte) {
	if b.n&63 == 0 {
		b.words = append(b.words, 0)
	}
	if bit != 0 {
		b.words[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	b.n++
}

// AppendRun appends cnt copies of bit.
func (b *Builder) AppendRun(bit byte, cnt int) {
	for cnt > 0 {
		if b.n&63 == 0 {
			b.words = append(b.words, 0)
		}
		off := uint(b.n) & 63
		take := 64 - int(off)
		if take > cnt {
			take = cnt
		}
		if bit != 0 {
			var mask uint64
			if take == 64 {
				mask = ^uint64(0)
			} else {
				mask = (1<<uint(take) - 1) << off
			}
			b.words[b.n>>6] |= mask
		}
		b.n += take
		cnt -= take
	}
}

// Build finalizes the Vector. The Builder must not be used afterwards.
func (b *Builder) Build() *Vector {
	v := &Vector{words: b.words, n: b.n}
	if r := uint(b.n) & 63; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << r) - 1
	}
	v.buildRank()
	return v
}
