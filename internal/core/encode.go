package core

import (
	"fmt"

	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/dynbv"
	"repro/internal/patricia"
	"repro/internal/wire"
)

// StoredBits returns the distinct stored bit strings in lexicographic
// order — the Sset the trie is built over. Decoders use it to validate
// that every stored string honours the caller's binarization contract.
func (w *wtrie) StoredBits() []bitstr.BitString { return w.t.Strings() }

// encodeTo writes the variant-independent part — element count plus the
// Patricia trie — with the given per-node payload encoder.
func (w *wtrie) encodeTo(wr *wire.Writer, payload func(n *node, wr *wire.Writer)) {
	wr.Int(w.n)
	w.t.EncodeTo(wr, payload)
}

// decodeWtrie reads a wtrie written by encodeTo and validates the
// wavelet-trie invariants: every internal node's bitvector must have
// exactly the length of its subsequence, so queries on a decoded trie
// can never index a bitvector out of range.
func decodeWtrie(r *wire.Reader, payload func(r *wire.Reader) vector) (wtrie, error) {
	w := newWtrie()
	w.n = r.Int()
	w.t = patricia.DecodeTrie[vector](r, payload)
	if err := r.Err(); err != nil {
		return w, err
	}
	if w.t.Root() != nil && w.n < 1 {
		return w, fmt.Errorf("core: decode: non-empty trie with n=%d", w.n)
	}
	if err := w.checkConsistency(); err != nil {
		return w, fmt.Errorf("core: decode: %v", err)
	}
	return w, nil
}

// EncodeTo serializes the append-only Wavelet Trie (§4.1 bitvectors).
func (a *AppendOnly) EncodeTo(w *wire.Writer) {
	a.encodeTo(w, func(nd *node, w *wire.Writer) { nd.Payload.(*appendbv.Vector).EncodeTo(w) })
}

// DecodeAppendOnly reads an AppendOnly serialized by EncodeTo.
func DecodeAppendOnly(r *wire.Reader) (*AppendOnly, error) {
	w, err := decodeWtrie(r, func(r *wire.Reader) vector { return appendbv.DecodeFrom(r) })
	if err != nil {
		return nil, err
	}
	return &AppendOnly{wtrie: w}, nil
}

// EncodeTo serializes the fully-dynamic Wavelet Trie (RLE+γ bitvectors).
func (d *Dynamic) EncodeTo(w *wire.Writer) {
	d.encodeTo(w, func(nd *node, w *wire.Writer) { nd.Payload.(*dynbv.Vector).EncodeTo(w) })
}

// DecodeDynamic reads a Dynamic serialized by EncodeTo.
func DecodeDynamic(r *wire.Reader) (*Dynamic, error) {
	w, err := decodeWtrie(r, func(r *wire.Reader) vector { return dynbv.DecodeFrom(r) })
	if err != nil {
		return nil, err
	}
	return &Dynamic{wtrie: w}, nil
}
