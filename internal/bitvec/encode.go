package bitvec

import "repro/internal/wire"

// EncodeTo serializes the vector into w (raw bits only; the rank
// directory is rebuilt on decode).
func (v *Vector) EncodeTo(w *wire.Writer) {
	w.Int(v.n)
	w.Words(v.words)
}

// DecodeFrom reads a vector serialized by EncodeTo. On malformed input it
// records the error on r and returns an empty vector; callers must check
// r.Err (or Done) before using the result.
func DecodeFrom(r *wire.Reader) *Vector {
	n := r.Int()
	words := r.Words()
	if r.Err() == nil && (n < 0 || n > len(words)*64) {
		r.Fail("bitvec: length %d inconsistent with %d words", n, len(words))
	}
	if r.Err() != nil {
		return FromWords(nil, 0)
	}
	if r.Refs() {
		// Zero-copy mode: retain the decoded words directly. No tail
		// masking — the words may alias a read-only mapping, and every
		// encoder writes masked tails anyway (EncodeTo serializes Vector
		// words, which Build/FromWords masked at construction).
		return FromWordsShared(words[:(n+63)/64], n)
	}
	return FromWords(words, n)
}
