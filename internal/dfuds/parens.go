// Package dfuds implements succinct trees: a balanced-parentheses
// sequence with FindClose navigation, and on top of it the shape
// of the static Wavelet Trie's Patricia trie. §3 stores that shape as a
// DFUDS string (Benoit et al. [2 in the paper]), 2k + o(k) bits for k
// nodes of any degree; a Patricia trie is strictly binary, for which the
// preorder internal/leaf bitmap — k + o(k) bits, read as parentheses —
// answers the same navigation (Tree). The package keeps the name of what
// it replaced.
//
// The parentheses sequence is stored as a plain bitvector (1 = open); the
// excess search behind FindClose uses a two-level block index
// (per-64-bit-word relative min excess, the word's total read off its
// popcount, then per-64-word superblock min and total),
// giving skips at two scales — the practical stand-in for the
// range-min-max tree. Inside a word the search goes a byte at a time
// through 256-entry excess tables, never a bit at a time.
package dfuds

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

const (
	blockBits      = 64
	blocksPerSuper = 64
)

// Parens is an immutable balanced-parentheses sequence supporting
// FindClose.
type Parens struct {
	bv *bitvec.Vector
	// Per-block (64-bit word) min of the running excess within the block,
	// relative to the block start, over prefix lengths 0..64 (hence
	// including the endpoints, and in [-64, 0]). The block's total excess,
	// which a forward search for a close needs beside it, is read off the
	// word: twice its popcount less 64 (findClose).
	blockMin []int8
	// Superblock (64 blocks) summaries, relative to superblock start.
	superExc []int32
	superMin []int32
}

// NewParens indexes a parentheses sequence given as a bitvector where bit
// 1 is '(' and 0 is ')'. The sequence must be balanced.
func NewParens(bv *bitvec.Vector) *Parens {
	p := &Parens{bv: bv}
	n := bv.Len()
	nb := (n + blockBits - 1) / blockBits
	ns := (nb + blocksPerSuper - 1) / blocksPerSuper
	p.blockMin = make([]int8, nb)
	p.superExc = make([]int32, ns)
	p.superMin = make([]int32, ns)
	words := bv.Words()
	for b := 0; b < nb; b++ {
		// Bits past n in the last word are 0; they must not count as
		// closes, so only whole bytes go through the tables.
		valid := min(n-b*blockBits, blockBits)
		w := words[b]
		exc, mn := 0, 0
		i := 0
		for ; i+8 <= valid; i += 8 {
			t := &byteExc[byte(w>>uint(i))]
			mn = min(mn, exc+int(t.min))
			exc += int(t.total)
		}
		for ; i < valid; i++ {
			exc += int(w>>uint(i)&1)*2 - 1
			mn = min(mn, exc)
		}
		p.blockMin[b] = int8(mn)
		s := b / blocksPerSuper
		p.superMin[s] = min(p.superMin[s], p.superExc[s]+int32(mn))
		p.superExc[s] += int32(exc)
	}
	return p
}

// Len returns the sequence length.
func (p *Parens) Len() int { return p.bv.Len() }

// IsOpen reports whether position i holds '('.
func (p *Parens) IsOpen(i int) bool { return p.bv.Access(i) == 1 }

// byteExc summarises one byte of parens read LSB first: its total excess
// (opens minus closes), the min of the running excess over its non-empty
// prefixes, and closeAt[d-1], the index of the first bit at which the
// running excess reaches -d (8 when it never does).
var byteExc [256]struct {
	total, min int8
	closeAt    [8]uint8
}

func init() {
	for b := range byteExc {
		t := &byteExc[b]
		t.min = 8
		for d := range t.closeAt {
			t.closeAt[d] = 8
		}
		exc := int8(0)
		for j := 0; j < 8; j++ {
			exc += int8(b>>j&1)*2 - 1
			t.min = min(t.min, exc)
			if exc < 0 && t.closeAt[-exc-1] == 8 {
				t.closeAt[-exc-1] = uint8(j)
			}
		}
		t.total = exc
	}
}

// closeInWord returns the smallest q >= off such that bits [off, q] of w
// hold depth more closes than opens, or -1 when the word ends first.
// depth must be positive.
func closeInWord(w uint64, off uint, depth int) int {
	// Shift the start to bit 0 and pad the top with opens, which can
	// never complete a match.
	w = w>>off | ^(^uint64(0) >> off)
	for s := uint(0); s < 64; s += 8 {
		t := &byteExc[byte(w>>s)]
		if depth+int(t.min) <= 0 {
			return int(off+s) + int(t.closeAt[depth-1])
		}
		depth += int(t.total)
	}
	return -1
}

// FindClose returns the position of the ')' matching the '(' at i.
func (p *Parens) FindClose(i int) int {
	if !p.IsOpen(i) {
		panic(fmt.Sprintf("dfuds: FindClose(%d): not an open paren", i))
	}
	q, ok := p.findClose(i)
	if !ok {
		panic(fmt.Sprintf("dfuds: FindClose(%d): unbalanced sequence", i))
	}
	return q
}

// findClose is FindClose for the open paren at i; ok is false when the
// sequence ends before the paren is closed.
func (p *Parens) findClose(i int) (q int, ok bool) {
	// The match is the first position right of i at which the closes
	// outnumber the opens by one.
	words := p.bv.Words()
	n := p.bv.Len()
	depth := 1
	if start := i + 1; start < n {
		b, off := start/blockBits, uint(start)%blockBits
		// In the last word the bits past the sequence's end read as
		// closes: a match there is no match.
		if q := closeInWord(words[b], off, depth); q >= 0 {
			return b*blockBits + q, b*blockBits+q < n
		}
		depth += 2*bits.OnesCount64(words[b]>>off) - int(blockBits-off)
		// Skip blocks and superblocks that cannot bring the depth to 0.
		for b++; b < len(p.blockMin); {
			if b%blocksPerSuper == 0 {
				if s := b / blocksPerSuper; depth+int(p.superMin[s]) > 0 {
					depth += int(p.superExc[s])
					b += blocksPerSuper
					continue
				}
			}
			if depth+int(p.blockMin[b]) > 0 {
				// The word's excess. The last word's padding reads as
				// closes here, but past that word nothing is searched.
				depth += 2*bits.OnesCount64(words[b]) - blockBits
				b++
				continue
			}
			q := b*blockBits + closeInWord(words[b], 0, depth)
			return q, q < n
		}
	}
	return 0, false
}

// SizeBits returns the footprint: parens plus the excess index.
func (p *Parens) SizeBits() int {
	return p.bv.SizeBits() +
		len(p.blockMin)*8 + len(p.superExc)*2*32
}
