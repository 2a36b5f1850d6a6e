// Package dfuds implements succinct trees: a balanced-parentheses
// sequence with FindClose/FindOpen navigation, and on top of it the shape
// of the static Wavelet Trie's Patricia trie. §3 stores that shape as a
// DFUDS string (Benoit et al. [2 in the paper]), 2k + o(k) bits for k
// nodes of any degree; a Patricia trie is strictly binary, for which the
// preorder internal/leaf bitmap — k + o(k) bits, read as parentheses —
// answers the same navigation (Tree). The package keeps the name of what
// it replaced.
//
// The parentheses sequence is stored as a plain bitvector (1 = open); the
// excess search behind FindClose/FindOpen uses a two-level block index
// (per-64-bit-word relative min/max excess, then per-64-word superblock),
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
	superBits      = blockBits * blocksPerSuper
)

// Parens is an immutable balanced-parentheses sequence supporting
// Rank/Select over parens plus FindClose, FindOpen and Excess.
type Parens struct {
	bv *bitvec.Vector
	// Per-block (64-bit word) summaries, relative to the block start:
	// total excess delta, and min/max of the running excess within the
	// block (over prefix lengths 0..64, hence including the endpoints).
	blockExc []int16
	blockMin []int16
	blockMax []int16
	// Superblock (64 blocks) summaries, relative to superblock start.
	superExc []int32
	superMin []int32
	superMax []int32
}

// NewParens indexes a parentheses sequence given as a bitvector where bit
// 1 is '(' and 0 is ')'. The sequence must be balanced.
func NewParens(bv *bitvec.Vector) *Parens {
	p := &Parens{bv: bv}
	n := bv.Len()
	nb := (n + blockBits - 1) / blockBits
	ns := (nb + blocksPerSuper - 1) / blocksPerSuper
	p.blockExc = make([]int16, nb)
	p.blockMin = make([]int16, nb)
	p.blockMax = make([]int16, nb)
	p.superExc = make([]int32, ns)
	p.superMin = make([]int32, ns)
	p.superMax = make([]int32, ns)
	words := bv.Words()
	for b := 0; b < nb; b++ {
		// Bits past n in the last word are 0; they must not count as
		// closes, so only whole bytes go through the tables.
		valid := min(n-b*blockBits, blockBits)
		w := words[b]
		exc, mn, mx := 0, 0, 0
		i := 0
		for ; i+8 <= valid; i += 8 {
			t := &byteExc[byte(w>>uint(i))]
			mn = min(mn, exc+int(t.min))
			mx = max(mx, exc+int(t.max))
			exc += int(t.total)
		}
		for ; i < valid; i++ {
			exc += int(w>>uint(i)&1)*2 - 1
			mn = min(mn, exc)
			mx = max(mx, exc)
		}
		p.blockExc[b] = int16(exc)
		p.blockMin[b] = int16(mn)
		p.blockMax[b] = int16(mx)
	}
	for s := 0; s < ns; s++ {
		exc, mn, mx := int32(0), int32(0), int32(0)
		for b := s * blocksPerSuper; b < (s+1)*blocksPerSuper && b < nb; b++ {
			if v := exc + int32(p.blockMin[b]); v < mn {
				mn = v
			}
			if v := exc + int32(p.blockMax[b]); v > mx {
				mx = v
			}
			exc += int32(p.blockExc[b])
		}
		p.superExc[s] = exc
		p.superMin[s] = mn
		p.superMax[s] = mx
	}
	return p
}

// Len returns the sequence length.
func (p *Parens) Len() int { return p.bv.Len() }

// IsOpen reports whether position i holds '('.
func (p *Parens) IsOpen(i int) bool { return p.bv.Access(i) == 1 }

// Excess returns E(i) = #opens - #closes in positions [0, i).
func (p *Parens) Excess(i int) int { return 2*p.bv.Rank1(i) - i }

// byteExc summarises one byte of parens read LSB first: its total excess
// (opens minus closes), the min and max of the running excess over its
// non-empty prefixes, and closeAt[d-1], the index of the first bit at
// which the running excess reaches -d (8 when it never does).
var byteExc [256]struct {
	total, min, max int8
	closeAt         [8]uint8
}

func init() {
	for b := range byteExc {
		t := &byteExc[b]
		t.min, t.max = 8, -8
		for d := range t.closeAt {
			t.closeAt[d] = 8
		}
		exc := int8(0)
		for j := 0; j < 8; j++ {
			exc += int8(b>>j&1)*2 - 1
			t.min = min(t.min, exc)
			t.max = max(t.max, exc)
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
		for b++; b < len(p.blockExc); {
			if b%blocksPerSuper == 0 {
				if s := b / blocksPerSuper; depth+int(p.superMin[s]) > 0 {
					depth += int(p.superExc[s])
					b += blocksPerSuper
					continue
				}
			}
			if depth+int(p.blockMin[b]) > 0 {
				depth += int(p.blockExc[b])
				b++
				continue
			}
			q := b*blockBits + closeInWord(words[b], 0, depth)
			return q, q < n
		}
	}
	return 0, false
}

// FindOpen returns the position of the '(' matching the ')' at i.
func (p *Parens) FindOpen(i int) int {
	if p.IsOpen(i) {
		panic(fmt.Sprintf("dfuds: FindOpen(%d): not a close paren", i))
	}
	// The match is the first position left of i at which the opens
	// outnumber the closes by one. Reversing and complementing a word
	// turns that leftward search into closeInWord's rightward one.
	words := p.bv.Words()
	depth := 1
	if start := i - 1; start >= 0 {
		b, off := start/blockBits, uint(blockBits-1-start%blockBits)
		if q := closeInWord(^bits.Reverse64(words[b]), off, depth); q >= 0 {
			return b*blockBits + blockBits - 1 - q
		}
		depth -= 2*bits.OnesCount64(words[b]<<off) - int(blockBits-off)
		for b--; b >= 0; {
			if (b+1)%blocksPerSuper == 0 {
				// Entering superblock s from its right end, the scan
				// reaches depth 0 at some q inside iff the running excess
				// relative to the superblock start (which spans
				// [superMin, superMax]) takes the value superExc - depth.
				s := b / blocksPerSuper
				if g := int(p.superExc[s]) - depth; g < int(p.superMin[s]) || g > int(p.superMax[s]) {
					depth -= int(p.superExc[s])
					b -= blocksPerSuper
					continue
				}
			}
			if g := int(p.blockExc[b]) - depth; g < int(p.blockMin[b]) || g > int(p.blockMax[b]) {
				depth -= int(p.blockExc[b])
				b--
				continue
			}
			if q := closeInWord(^bits.Reverse64(words[b]), 0, depth); q >= 0 {
				return b*blockBits + blockBits - 1 - q
			}
			depth -= int(p.blockExc[b])
			b--
		}
	}
	panic(fmt.Sprintf("dfuds: FindOpen(%d): unbalanced sequence", i))
}

// SizeBits returns the footprint: parens plus the excess index.
func (p *Parens) SizeBits() int {
	return p.bv.SizeBits() +
		len(p.blockExc)*3*16 + len(p.superExc)*3*32
}
