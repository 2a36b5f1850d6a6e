package rrr

import "repro/internal/wire"

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
// shape is fully validated (errors are recorded on r): the class and offset streams must
// have exactly the lengths the class fields imply, and the last block's
// class cannot exceed its valid bits — so Rank/Select on a decoded vector
// always stay in range. Bit-level corruption inside a block offset still
// surfaces as wrong query answers, not panics; callers wanting integrity
// must checksum the enclosing container.
func DecodeFrom(r *wire.Reader) *Vector {
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
	v.buildSuper()
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
	return v
}
