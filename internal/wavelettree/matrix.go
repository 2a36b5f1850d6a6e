package wavelettree

import (
	"fmt"

	"repro/internal/bitvec"
)

// Matrix is an immutable wavelet matrix (Claude, Navarro and Ordóñez,
// Inf. Syst. 2015) over n unsigned values of width bits: the pointerless,
// level-wise layout of a balanced wavelet tree over [0, 2^width). Plane d
// (MSB first) holds bit width−1−d of every value, in the order reached by
// stably partitioning the previous plane's order on its bit, zeros first,
// so the children of the node covering [a, b) on plane d are
// [Rank0(a), Rank0(b)) and [Z+Rank1(a), Z+Rank1(b)) on plane d+1, Z being
// plane d's zero count. Every query is rank (or select) arithmetic on plain
// bitvec planes: O(width) of them for Access, Rank and Select, O(width) per
// boundary node for RangeCount. Width 0 — every value 0 — has no plane.
//
// The planes are one word array, ⌈n/64⌉ words each — the column image's plane
// array byte for byte, which DecodeMatrix aliases. A Matrix is safe for
// concurrent readers.
type Matrix struct {
	n, width int
	words    []uint64        // the planes, concatenated
	planes   []bitvec.Vector // plane d aliases its ⌈n/64⌉ words
}

// NewMatrix builds the matrix over vals, each below 2^width (width ≤ 64);
// vals is overwritten. A value too wide panics: this is a builder, and the
// caller owns the values.
func NewMatrix(vals []uint64, width int) *Matrix {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wavelettree: Matrix width %d outside [0,64]", width))
	}
	for _, v := range vals {
		if width < 64 && v>>uint(width) != 0 {
			panic(fmt.Sprintf("wavelettree: value %d wider than %d bits", v, width))
		}
	}
	n, wpp := len(vals), (len(vals)+63)/64
	words := make([]uint64, width*wpp)
	var next []uint64
	for d := 0; d < width; d++ {
		shift, plane, zeros := uint(width-1-d), words[d*wpp:(d+1)*wpp], 0
		for i, v := range vals {
			if v>>shift&1 == 0 {
				zeros++
			} else {
				plane[i>>6] |= 1 << (uint(i) & 63)
			}
		}
		if d == width-1 {
			break // the last plane orders nothing below it
		}
		if next == nil {
			next = make([]uint64, n)
		}
		zi, oi := 0, zeros
		for _, v := range vals {
			if v>>shift&1 == 0 {
				next[zi] = v
				zi++
			} else {
				next[oi] = v
				oi++
			}
		}
		vals, next = next, vals
	}
	return newMatrix(words, n, width)
}

// DecodeMatrix views words — width planes of ⌈n/64⌉ words, as Words returns
// them — as a matrix over n values without copying: words must not change
// and must outlive the matrix (a read-only mapping qualifies). Any bits are
// the planes of some n values, but more than 64 planes, a word count that
// does not match, or a bit set past n (it would move every right child) is
// refused.
func DecodeMatrix(words []uint64, n, width int) (*Matrix, error) {
	if width < 0 || width > 64 {
		return nil, fmt.Errorf("wavelettree: %d bit planes (max 64)", width)
	}
	if n < 0 {
		return nil, fmt.Errorf("wavelettree: matrix of %d values", n)
	}
	wpp := (n + 63) / 64
	if len(words) != width*wpp {
		return nil, fmt.Errorf("wavelettree: %d plane words, want %d × %d", len(words), width, wpp)
	}
	for d := 0; d < width && n&63 != 0; d++ {
		if words[(d+1)*wpp-1]>>uint(n&63) != 0 {
			return nil, fmt.Errorf("wavelettree: plane %d has bits set past its %d values", d, n)
		}
	}
	return newMatrix(words, n, width), nil
}

func newMatrix(words []uint64, n, width int) *Matrix {
	wpp := (n + 63) / 64
	m := &Matrix{n: n, width: width, words: words, planes: make([]bitvec.Vector, width)}
	for d := range m.planes {
		m.planes[d] = *bitvec.FromWordsShared(words[d*wpp:(d+1)*wpp], n)
	}
	return m
}

// Width returns the number of bit planes.
func (m *Matrix) Width() int { return m.width }

// Words returns the concatenated plane words, which must not be modified.
func (m *Matrix) Words() []uint64 { return m.words }

// SizeBits returns the footprint of every word the matrix holds: the planes
// and their rank directories.
func (m *Matrix) SizeBits() int {
	s := 0
	for d := range m.planes {
		s += m.planes[d].SizeBits()
	}
	return s
}

// Access returns the value at position pos, which must be in [0, n).
func (m *Matrix) Access(pos int) uint64 {
	if pos < 0 || pos >= m.n {
		panic(fmt.Sprintf("wavelettree: Matrix.Access(%d) out of range [0,%d)", pos, m.n))
	}
	var v uint64
	for d := range m.planes {
		bit := uint64(m.planes[d].Access(pos))
		v = v<<1 | bit
		if d+1 < m.width {
			pos = m.child(d, bit, pos)
		}
	}
	return v
}

// child maps position pos on plane d to plane d+1, into bit's child.
func (m *Matrix) child(d int, bit uint64, pos int) int {
	p := &m.planes[d]
	if bit == 0 {
		return p.Rank0(pos)
	}
	return p.Zeros() + p.Rank1(pos)
}

// node follows sym's path down from positions 0 and pos: below the last
// plane, s is where sym's leaf starts and e where pos lands, so e−s counts
// sym in [0, pos). ok is false when sym does not fit width bits.
func (m *Matrix) node(sym uint64, pos int) (s, e int, ok bool) {
	if m.width < 64 && sym>>uint(m.width) != 0 {
		return 0, 0, false
	}
	e = pos
	for d := range m.planes {
		bit := sym >> uint(m.width-1-d) & 1
		s, e = m.child(d, bit, s), m.child(d, bit, e)
	}
	return s, e, true
}

// Rank counts occurrences of sym in positions [0, pos), pos in [0, n].
func (m *Matrix) Rank(sym uint64, pos int) int {
	if pos < 0 || pos > m.n {
		panic(fmt.Sprintf("wavelettree: Matrix.Rank position %d out of range [0,%d]", pos, m.n))
	}
	s, e, _ := m.node(sym, pos)
	return e - s
}

// Select returns the position of the idx-th (0-based) occurrence of sym,
// with ok=false when sym occurs fewer than idx+1 times.
func (m *Matrix) Select(sym uint64, idx int) (int, bool) {
	s, e, ok := m.node(sym, m.n)
	if !ok || idx < 0 || idx >= e-s {
		return 0, false
	}
	pos := s + idx
	for d := m.width - 1; d >= 0; d-- {
		p := &m.planes[d]
		if sym>>uint(m.width-1-d)&1 == 0 {
			pos = p.Select0(pos)
		} else {
			pos = p.Select1(pos - p.Zeros())
		}
	}
	return pos, true
}

// RangeCount counts positions in [l, r) whose value lies in the closed
// interval [lo, hi] — the two-dimensional counting primitive, answered
// without reconstructing a value.
func (m *Matrix) RangeCount(l, r int, lo, hi uint64) int {
	if l < 0 || r > m.n || l > r {
		panic(fmt.Sprintf("wavelettree: Matrix.RangeCount positions [%d,%d) out of range [0,%d]", l, r, m.n))
	}
	if lo > hi {
		return 0
	}
	return m.rangeCount(0, l, r, 0, ^uint64(0)>>(64-uint(m.width)), lo, hi)
}

// rangeCount is the wavelet-tree range count: the node on plane d covering
// [a, b) holds values in [nodeLo, nodeHi]; it counts b−a when the query
// contains it, 0 when they are disjoint, and otherwise its two children.
func (m *Matrix) rangeCount(d, a, b int, nodeLo, nodeHi, lo, hi uint64) int {
	if b <= a || hi < nodeLo || lo > nodeHi {
		return 0
	}
	if lo <= nodeLo && nodeHi <= hi {
		return b - a
	}
	p := &m.planes[d]
	z0a, z0b, z := p.Rank0(a), p.Rank0(b), p.Zeros()
	mid := nodeLo + (nodeHi-nodeLo)>>1
	return m.rangeCount(d+1, z0a, z0b, nodeLo, mid, lo, hi) +
		m.rangeCount(d+1, z+a-z0a, z+b-z0b, mid+1, nodeHi, lo, hi)
}
