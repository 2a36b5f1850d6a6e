package rrr

import (
	"fmt"

	"repro/internal/eliasfano"
	"repro/internal/wire"
)

// EncodeTo serializes the compressed vector into w. Only the payload is
// written — the bit count, the packed class fields and the packed offset
// stream; the superblock directory and the ones count are derived data
// and are rebuilt on decode, so a decoded vector can never carry a
// directory inconsistent with its payload.
func (v *Vector) EncodeTo(w *wire.Writer) {
	w.Int(v.n)
	w.Words(v.classes)
	w.Words(v.offsets)
}

// DecodeFrom reads a vector serialized by EncodeTo, rebuilding the
// superblock directory from the class fields (buildSuper). Structural
// shape is fully validated (errors are recorded on r): the class and
// offset streams must have exactly the lengths the class fields imply, and
// the last block's class cannot exceed its valid bits. A copying reader
// (the heap Load of bytes nobody has checksummed) also checks every block
// body — each offset below C(63, class), and no set bit of the last block
// past the vector's end — so that the ones a block decodes to are always
// the ones its class field promised: a wavelet trie sizes a child by its
// parent's class sums and positions into it by the parent's decoded bits,
// and the two must not disagree. A zero-copy reader skips that pass (it
// would fault in every page of a mapping whose enclosing file the caller
// has checksummed).
func DecodeFrom(r *wire.Reader) *Vector { return DecodeSegments(r, nil) }

// DecodeSegments is DecodeFrom for a vector made by FromSegments over the
// same starts, which the caller stores: the samples are rebuilt against
// them, whatever they are, and it is the caller's validation of starts —
// non-decreasing, none past Len() — that makes the In queries safe.
func DecodeSegments(r *wire.Reader, starts *eliasfano.Monotone) *Vector {
	v := &Vector{
		n:       r.Int(),
		classes: r.Words(),
		offsets: r.Words(),
	}
	if r.Err() != nil {
		return FromWords(nil, 0)
	}
	nb := v.numBlocks()
	if len(v.classes) != (nb*classBits+63)/64 {
		r.Fail("rrr: %d class words for n=%d, want %d", len(v.classes), v.n, (nb*classBits+63)/64)
		return FromWords(nil, 0)
	}
	v.buildSuper(starts)
	if offPos := v.OffsetStreamBits(); len(v.offsets) != (offPos+63)/64 {
		r.Fail("rrr: %d offset words, classes imply %d", len(v.offsets), (offPos+63)/64)
		return FromWords(nil, 0)
	}
	if nb > 0 {
		if last := v.n - (nb-1)*blockBits; v.class(nb-1) > last {
			r.Fail("rrr: last block class %d exceeds its %d valid bits", v.class(nb-1), last)
			return FromWords(nil, 0)
		}
	}
	if !r.Refs() {
		if err := v.checkBlocks(); err != nil {
			r.Fail("%v", err)
			return FromWords(nil, 0)
		}
	}
	return v
}

// checkBlocks verifies that every block's offset names a block of its
// class and that the last block keeps its set bits among the valid ones.
func (v *Vector) checkBlocks() error {
	nb := v.numBlocks()
	if nb == 0 {
		return nil
	}
	cr := v.classesFrom(0)
	offPos := 0
	for b := 0; b < nb; b++ {
		c := cr.next()
		off := v.offset(c, offPos)
		if off >= choose[c][blockBits] {
			return fmt.Errorf("rrr: block %d offset %d out of range for class %d", b, off, c)
		}
		if valid := v.n - b*blockBits; valid < blockBits {
			if in, _ := rankInBlock(c, off, 0, valid); in != c {
				return fmt.Errorf("rrr: last block sets bits past the vector's end")
			}
		}
		offPos += offsetWidth[c]
	}
	return nil
}
