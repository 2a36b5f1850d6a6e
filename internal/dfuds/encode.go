package dfuds

import (
	"repro/internal/bitvec"
	"repro/internal/wire"
)

// EncodeTo serializes the tree into w: the bitmap alone; the excess index
// is rebuilt on decode.
func (t *Tree) EncodeTo(w *wire.Writer) { t.p.bv.EncodeTo(w) }

// DecodeTree reads a tree serialized by EncodeTo; errors are recorded on
// r. Only the bitmap's length is checked: whether it is a tree is
// WellFormed's to say.
func DecodeTree(r *wire.Reader) *Tree {
	bv := bitvec.DecodeFrom(r)
	if r.Err() == nil && bv.Len() < 2 {
		r.Fail("dfuds: a tree bitmap of %d bits holds no node", bv.Len())
	}
	if r.Err() != nil {
		return NewTree(bitvec.FromWords([]uint64{0b01}, 2)) // one leaf
	}
	return &Tree{p: NewParens(bv)}
}
