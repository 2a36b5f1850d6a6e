package eliasfano

import (
	"repro/internal/bitvec"
	"repro/internal/wire"
)

// EncodeTo serializes the monotone sequence into w.
func (m *Monotone) EncodeTo(w *wire.Writer) {
	w.Int(m.k)
	w.U64(m.universe)
	w.Int(m.lowBits)
	w.Words(m.lows)
	m.highs.EncodeTo(w)
}

// DecodeMonotone reads a Monotone serialized by EncodeTo; errors are
// recorded on r.
func DecodeMonotone(r *wire.Reader) *Monotone {
	m := &Monotone{
		k:        r.Int(),
		universe: r.U64(),
		lowBits:  r.Int(),
	}
	m.lows = r.Words()
	m.setHighs(bitvec.DecodeFrom(r))
	if r.Err() == nil {
		if m.lowBits < 0 || m.lowBits > 63 || len(m.lows) != (m.k*m.lowBits+63)/64 {
			r.Fail("eliasfano: low-bit array shape inconsistent (k=%d lowBits=%d)", m.k, m.lowBits)
		} else if m.k > 0 && m.highs.Ones() != m.k {
			r.Fail("eliasfano: high bitvector has %d ones, want %d", m.highs.Ones(), m.k)
		}
	}
	if r.Err() != nil {
		return FromSorted(nil, 1)
	}
	return m
}

// EncodeTo serializes the partial-sum directory into w.
func (p *PartialSum) EncodeTo(w *wire.Writer) {
	w.U64(p.total)
	p.mono.EncodeTo(w)
}

// DecodePartialSum reads a PartialSum serialized by EncodeTo.
func DecodePartialSum(r *wire.Reader) *PartialSum {
	total := r.U64()
	mono := DecodeMonotone(r)
	if r.Err() != nil {
		return NewPartialSum(nil)
	}
	return &PartialSum{mono: mono, total: total}
}
