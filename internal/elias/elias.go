// Package elias implements the Elias γ (gamma) universal code over a
// packed bit stream [5 in the paper].
//
// The fully-dynamic bitvector of §4.2 run-length-encodes its bits and
// stores the run lengths as γ codes; GammaLen gives the exact code length
// used for space accounting.
//
// Code layout inside the stream (bit 0 written first):
//
//	γ(v), v ≥ 1:  ⌊log₂ v⌋ zeros · 1 · the low ⌊log₂ v⌋ bits of v (LSB first)
package elias

import (
	"fmt"
	"math/bits"
)

// GammaLen returns the length in bits of γ(v). v must be ≥ 1.
func GammaLen(v uint64) int {
	if v == 0 {
		panic("elias: GammaLen(0): gamma codes start at 1")
	}
	return 2*bits.Len64(v) - 1
}

// Writer appends bits and Elias codes to a growable packed stream. The
// zero value is an empty stream ready for use.
type Writer struct {
	words []uint64
	n     int
}

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.n }

// Words returns the packed stream (bit i at word i/64, offset i%64). The
// slice aliases the writer's storage.
func (w *Writer) Words() []uint64 { return w.words }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b byte) {
	if w.n&63 == 0 {
		w.words = append(w.words, 0)
	}
	if b != 0 {
		w.words[w.n>>6] |= 1 << (uint(w.n) & 63)
	}
	w.n++
}

// WriteBits appends the low nbits bits of v, least significant first.
func (w *Writer) WriteBits(v uint64, nbits int) {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("elias: WriteBits: nbits %d out of range", nbits))
	}
	for nbits > 0 {
		if w.n&63 == 0 {
			w.words = append(w.words, 0)
		}
		off := uint(w.n) & 63
		take := 64 - int(off)
		if take > nbits {
			take = nbits
		}
		var mask uint64
		if take == 64 {
			mask = ^uint64(0)
		} else {
			mask = 1<<uint(take) - 1
		}
		w.words[w.n>>6] |= (v & mask) << off
		v >>= uint(take)
		w.n += take
		nbits -= take
	}
}

// WriteGamma appends γ(v). v must be ≥ 1.
func (w *Writer) WriteGamma(v uint64) {
	if v == 0 {
		panic("elias: WriteGamma(0)")
	}
	nb := bits.Len64(v) // total bits of v including leading 1
	w.WriteBits(0, nb-1)
	w.WriteBit(1)
	w.WriteBits(v&^(1<<uint(nb-1)), nb-1) // v without its leading 1, LSB first
}

// Reader decodes a packed stream produced by Writer.
type Reader struct {
	words []uint64
	n     int
	pos   int
}

// NewReader returns a Reader over the first n bits of words.
func NewReader(words []uint64, n int) *Reader {
	return &Reader{words: words, n: n}
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() byte {
	if r.pos >= r.n {
		panic("elias: ReadBit past end of stream")
	}
	b := byte(r.words[r.pos>>6]>>(uint(r.pos)&63)) & 1
	r.pos++
	return b
}

// ReadBits consumes nbits bits and returns them packed LSB-first.
func (r *Reader) ReadBits(nbits int) uint64 {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("elias: ReadBits: nbits %d out of range", nbits))
	}
	if r.pos+nbits > r.n {
		panic("elias: ReadBits past end of stream")
	}
	var v uint64
	got := 0
	for got < nbits {
		off := uint(r.pos) & 63
		take := 64 - int(off)
		if take > nbits-got {
			take = nbits - got
		}
		var mask uint64
		if take == 64 {
			mask = ^uint64(0)
		} else {
			mask = 1<<uint(take) - 1
		}
		v |= (r.words[r.pos>>6] >> off & mask) << uint(got)
		r.pos += take
		got += take
	}
	return v
}

// ReadGamma decodes one γ code.
func (r *Reader) ReadGamma() uint64 {
	zeros := 0
	for r.ReadBit() == 0 {
		zeros++
		if zeros > 64 {
			panic("elias: ReadGamma: malformed code (too many zeros)")
		}
	}
	return 1<<uint(zeros) | r.ReadBits(zeros)
}
