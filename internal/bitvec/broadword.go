package bitvec

import "math/bits"

// Word-level helpers shared by every packed structure in the repository
// (this package, rrr, eliasfano): in-word select and fixed-width field
// access over LSB-first packed words.

// selectInByte[r][b] is the position of the r-th (0-based) set bit of
// byte b, or 8 when b has fewer than r+1 set bits.
var selectInByte [8][256]uint8

func init() {
	for b := 0; b < 256; b++ {
		r := 0
		for j := 0; j < 8; j++ {
			if b>>j&1 == 1 {
				selectInByte[r][b] = uint8(j)
				r++
			}
		}
		for ; r < 8; r++ {
			selectInByte[r][b] = 8
		}
	}
}

const (
	l8 = 0x0101010101010101
	h8 = 0x8080808080808080
)

// Select64 returns the position of the k-th (0-based) set bit of w.
// Precondition: k < popcount(w). Broadword (Vigna): per-byte popcounts,
// their prefix sums by one multiplication, a parallel compare against k
// to find the byte, then a table lookup inside it — no data-dependent
// branch.
func Select64(w uint64, k int) int {
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	sums := s * l8 // byte i holds popcount(bytes 0..i of w)
	// The high bit of byte i survives iff sums_i <= k: those bytes end
	// before the answer, so their count is the answer's byte index.
	place := uint(bits.OnesCount64(((uint64(k)*l8|h8)-sums)&h8)) * 8
	before := int(sums << 8 >> place & 0xff)
	return int(place) + int(selectInByte[k-before][w>>place&0xff])
}

// ReadBits returns the nbits-wide field (nbits <= 64) that starts at bit
// position pos of the LSB-first packed words.
func ReadBits(words []uint64, pos, nbits int) uint64 {
	if nbits == 0 {
		return 0
	}
	wi := pos >> 6
	off := uint(pos) & 63
	v := words[wi] >> off
	if int(off)+nbits > 64 {
		v |= words[wi+1] << (64 - off)
	}
	if nbits < 64 {
		v &= 1<<uint(nbits) - 1
	}
	return v
}

// WriteBits ORs the low nbits bits of v into the packed words at bit
// position pos; the target bits must be zero.
func WriteBits(words []uint64, pos int, v uint64, nbits int) {
	if nbits == 0 {
		return
	}
	if nbits < 64 {
		v &= 1<<uint(nbits) - 1
	}
	wi := pos >> 6
	off := uint(pos) & 63
	words[wi] |= v << off
	if int(off)+nbits > 64 {
		words[wi+1] |= v >> (64 - off)
	}
}
