package wavelettree

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/rrr"
	"repro/internal/wire"
)

// Matrix is an immutable wavelet matrix (Claude, Navarro and Ordóñez,
// Inf. Syst. 2015) over n unsigned values of width bits: the pointerless,
// level-wise layout of a balanced wavelet tree over [0, 2^width). Plane d
// (MSB first) holds bit width−1−d of every value, in the order reached by
// stably partitioning the previous plane's order on its bit, zeros first,
// so the children of the node covering [a, b) on plane d are
// [Rank0(a), Rank0(b)) and [Z+Rank1(a), Z+Rank1(b)) on plane d+1, Z being
// plane d's zero count. Every query is rank (or select) arithmetic on the
// planes: O(width) of them for Access, Rank and Select, O(width) per
// boundary node for RangeCount; AppendValues decodes a run of positions
// plane by plane instead. Width 0 — every value 0 — has no plane.
//
// A plane is a plain bitvec at one bit a value, or an RRR vector at about
// its zero-order entropy (§2's Fully Indexed Dictionary): NewMatrix keeps
// whichever has the smaller SizeBits, so a skewed plane is compressed and
// a balanced one stays plain. The plain planes are one word array, ⌈n/64⌉
// words each, which EncodeTo writes as it is and DecodeMatrix aliases; an
// RRR plane's class and offset words are aliased too, its samples rebuilt.
// A Matrix is safe for concurrent readers.
type Matrix struct {
	n, width int
	plain    []uint64 // the plain planes' words, concatenated in plane order
	planes   []plane
}

// plane is one bit plane: a plain bitvector or, when rrr is set, an RRR one.
type plane struct {
	bits  bitvec.Vector // aliases the plane's ⌈n/64⌉ words of Matrix.plain
	rrr   *rrr.Vector
	zeros int
}

// Plane kinds, as EncodeTo writes them.
const (
	planePlain = 0
	planeRRR   = 1
)

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
	var next, ones []uint64
	if width > 1 {
		next, ones = make([]uint64, n), make([]uint64, n)
	}
	for d := 0; d < width; d++ {
		shift, last := uint(width-1-d), d == width-1
		zi, oi := 0, 0
		for wi := range words[d*wpp : (d+1)*wpp] {
			var w uint64
			for j, v := range vals[wi*64 : min(n, wi*64+64)] {
				bit := v >> shift & 1
				w |= bit << uint(j)
				if !last { // stably partitioned without a branch on the bit
					next[zi], ones[oi] = v, v
					zi += int(bit ^ 1)
					oi += int(bit)
				}
			}
			words[d*wpp+wi] = w
		}
		if !last { // the last plane orders nothing below it
			copy(next[zi:], ones[:oi])
			vals, next = next, vals
		}
	}
	// Each plane in its smaller form (a tie stays plain); the plain ones
	// move up to close the gaps the RRR ones leave.
	rrrs, kept := make([]*rrr.Vector, width), 0
	for d := range rrrs {
		w := words[d*wpp : (d+1)*wpp]
		if r := rrr.FromWords(w, n); r.SizeBits() < bitvec.FromWordsShared(w, n).SizeBits() {
			rrrs[d] = r
			continue
		}
		copy(words[kept*wpp:], w)
		kept++
	}
	if kept < width {
		words = slices.Clone(words[:kept*wpp])
	}
	return newMatrix(n, width, words, rrrs)
}

// newMatrix assembles a matrix from its plain planes' words and its RRR
// planes (nil where plane d is plain).
func newMatrix(n, width int, plain []uint64, rrrs []*rrr.Vector) *Matrix {
	wpp := (n + 63) / 64
	m := &Matrix{n: n, width: width, plain: plain, planes: make([]plane, width)}
	for d, k := range rrrs {
		p := &m.planes[d]
		if p.rrr = k; k != nil {
			p.zeros = n - k.Ones()
			continue
		}
		p.bits = *bitvec.FromWordsShared(plain[:wpp], n)
		p.zeros = p.bits.Zeros()
		plain = plain[wpp:]
	}
	return m
}

// EncodeTo serializes the matrix into w: the width, a kind byte per plane,
// the plain planes' words as one array (when there are any) and then each
// RRR plane's stream. The value count is the caller's to store.
func (m *Matrix) EncodeTo(w *wire.Writer) {
	w.Byte(byte(m.width))
	nplain := 0
	for d := range m.planes {
		if m.planes[d].rrr != nil {
			w.Byte(planeRRR)
		} else {
			w.Byte(planePlain)
			nplain++
		}
	}
	if nplain > 0 {
		w.Words(m.plain)
	}
	for d := range m.planes {
		if k := m.planes[d].rrr; k != nil {
			k.EncodeTo(w)
		}
	}
}

// DecodeMatrix reads a matrix over n values serialized by EncodeTo;
// errors are recorded on r. In zero-copy mode the result aliases r's
// buffer, which must not change and must outlive it (a read-only mapping
// qualifies). Any bits are the planes of some n values, but more than 64
// planes, an unknown kind, a word count or RRR length that does not match,
// a plain plane with a bit set past n (it would move every right child)
// and an RRR plane whose blocks disagree with their classes — checked
// whatever r's mode — are refused.
func DecodeMatrix(r *wire.Reader, n int) *Matrix {
	width := int(r.Byte())
	if r.Err() == nil && (width > 64 || n < 0) {
		r.Fail("wavelettree: %d bit planes over %d values", width, n)
	}
	if r.Err() != nil {
		return &Matrix{}
	}
	rrrs, nplain := make([]*rrr.Vector, width), 0
	kinds := make([]byte, width)
	for d := range kinds {
		switch kinds[d] = r.Byte(); kinds[d] {
		case planePlain:
			nplain++
		case planeRRR:
		default:
			r.Fail("wavelettree: plane %d has unknown kind %d", d, kinds[d])
		}
	}
	var plain []uint64
	if nplain > 0 {
		plain = r.Words()
	}
	wpp := (n + 63) / 64
	if r.Err() == nil && len(plain) != nplain*wpp {
		r.Fail("wavelettree: %d plain plane words, want %d × %d", len(plain), nplain, wpp)
	}
	for k := 0; k < nplain && n&63 != 0 && r.Err() == nil; k++ {
		if plain[(k+1)*wpp-1]>>uint(n&63) != 0 {
			r.Fail("wavelettree: plain plane %d has bits set past its %d values", k, n)
		}
	}
	for d := 0; d < width && r.Err() == nil; d++ {
		if kinds[d] != planeRRR {
			continue
		}
		k := rrr.DecodeFrom(r)
		switch {
		case r.Err() != nil:
		case k.Len() != n:
			r.Fail("wavelettree: RRR plane %d holds %d bits, want %d", d, k.Len(), n)
		default:
			if err := k.CheckBlocks(); err != nil {
				r.Fail("wavelettree: plane %d: %v", d, err)
			}
		}
		rrrs[d] = k
	}
	if r.Err() != nil {
		return &Matrix{}
	}
	return newMatrix(n, width, plain, rrrs)
}

// Width returns the number of bit planes.
func (m *Matrix) Width() int { return m.width }

// SizeBits returns the footprint of every word the matrix holds: the plain
// planes with their rank directories and the RRR planes with their class
// fields, offsets and samples.
func (m *Matrix) SizeBits() int {
	s := 0
	for d := range m.planes {
		if p := &m.planes[d]; p.rrr != nil {
			s += p.rrr.SizeBits()
		} else {
			s += p.bits.SizeBits()
		}
	}
	return s
}

// accessRank returns the bit at pos and the ones before it.
func (p *plane) accessRank(pos int) (byte, int) {
	if p.rrr != nil {
		return p.rrr.AccessRank1(pos)
	}
	return p.bits.Access(pos), p.bits.Rank1(pos)
}

// rank1 returns the ones in [0, pos), pos in [0, n].
func (p *plane) rank1(pos int) int {
	if p.rrr != nil {
		return p.rrr.Rank1(pos)
	}
	return p.bits.Rank1(pos)
}

// selectBit returns the position of the idx-th occurrence of bit b, which
// the caller knows to exist.
func (p *plane) selectBit(b byte, idx int) int {
	if p.rrr != nil {
		return p.rrr.Select(b, idx)
	}
	return p.bits.Select(b, idx)
}

// Access returns the value at position pos, which must be in [0, n).
func (m *Matrix) Access(pos int) uint64 {
	if pos < 0 || pos >= m.n {
		panic(fmt.Sprintf("wavelettree: Matrix.Access(%d) out of range [0,%d)", pos, m.n))
	}
	var v uint64
	for d := range m.planes {
		p := &m.planes[d]
		bit, ones := p.accessRank(pos)
		v = v<<1 | uint64(bit)
		if bit == 0 {
			pos -= ones
		} else {
			pos = p.zeros + ones
		}
	}
	return v
}

// Cursor reads a matrix's values at non-decreasing positions — a scan's
// candidates, one after the other — with one forward rrr.Reader per RRR
// plane, so a run of nearby positions decodes each block of a compressed
// plane once instead of once per value (a plain plane's bit and rank are
// a word and a directory entry either way). A position below plane 0's
// maps into one child or the other, so on a deeper plane it may lie
// behind that plane's reader: the reader then starts over, at a seek's
// cost. The same position twice is answered from the last read. A Cursor
// is not safe for concurrent use.
type Cursor struct {
	m       *Matrix
	readers []rrr.Reader // plane d's, when it is RRR-coded
	last    int          // the last position read, and its value
	val     uint64
}

// Cursor returns a Cursor before position 0.
func (m *Matrix) Cursor() *Cursor {
	c := &Cursor{m: m, last: -1, readers: make([]rrr.Reader, len(m.planes))}
	for d := range m.planes {
		if k := m.planes[d].rrr; k != nil {
			c.readers[d] = k.Reader()
		}
	}
	return c
}

// Access returns the value at position pos, which must be in [0, n): the
// same as Matrix.Access.
func (c *Cursor) Access(pos int) uint64 {
	m := c.m
	if pos < 0 || pos >= m.n {
		panic(fmt.Sprintf("wavelettree: Cursor.Access(%d) out of range [0,%d)", pos, m.n))
	}
	if pos == c.last {
		return c.val
	}
	c.last = pos
	var v uint64
	for d := range m.planes {
		p := &m.planes[d]
		var bit byte
		var ones int
		if p.rrr != nil {
			rd := &c.readers[d]
			if pos < rd.Pos() {
				*rd = p.rrr.Reader()
			}
			w, r := rd.ReadIn(0, pos, 1)
			bit, ones = byte(w), r
		} else {
			bit, ones = p.bits.Access(pos), p.bits.Rank1(pos)
		}
		v = v<<1 | uint64(bit)
		if bit == 0 {
			pos -= ones
		} else {
			pos = p.zeros + ones
		}
	}
	c.val = v
	return v
}

// child maps position pos on plane d to plane d+1, into bit's child.
func (m *Matrix) child(d int, bit uint64, pos int) int {
	p := &m.planes[d]
	if bit == 0 {
		return pos - p.rank1(pos)
	}
	return p.zeros + p.rank1(pos)
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
			pos = p.selectBit(0, pos)
		} else {
			pos = p.selectBit(1, pos-p.zeros)
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
	o1a, o1b := p.rank1(a), p.rank1(b)
	mid := nodeLo + (nodeHi-nodeLo)>>1
	return m.rangeCount(d+1, a-o1a, b-o1b, nodeLo, mid, lo, hi) +
		m.rangeCount(d+1, p.zeros+o1a, p.zeros+o1b, mid+1, nodeHi, lo, hi)
}

// span is a run [a, b) of positions on a plane.
type span struct{ a, b int }

// pending is a value being decoded: the bits read so far, and where in
// the output it goes.
type pending struct {
	acc uint64
	at  int
}

// AppendValues appends the values at positions [lo, hi) to dst, in
// position order, and returns the extended slice — NewMatrix's stable
// partitions undone plane by plane rather than one Access per position.
// The range's values on plane d lie in runs of positions (one when the
// range is every position), in the order the partitions put them: each
// run's bits stream a word at a time (a plain plane's words, an RRR
// plane's Iter), every value takes its bit, and the values are stably
// re-partitioned, zeros first, into the next plane's order, each run
// mapping to its zero and its one child by two ranks. Below the last plane
// every value goes to its place in dst.
func (m *Matrix) AppendValues(dst []uint64, lo, hi int) []uint64 {
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("wavelettree: Matrix.AppendValues positions [%d,%d) out of range [0,%d]", lo, hi, m.n))
	}
	base, k := len(dst), hi-lo
	dst = slices.Grow(dst, k)[:base+k]
	if m.width == 0 || k == 0 {
		clear(dst[base:])
		return dst
	}
	cur, zbuf, obuf := make([]pending, k), make([]pending, k), make([]pending, k)
	for i := range cur {
		cur[i].at = base + i
	}
	spans, next, ones := []span{{lo, hi}}, []span(nil), []span(nil)
	var it rrr.Iter
	for d := range m.planes {
		p, last := &m.planes[d], d == m.width-1
		i, zi, oi := 0, 0, 0
		next, ones = next[:0], ones[:0]
		for _, s := range spans {
			var r1 int // the ones before the run
			if p.rrr != nil {
				it.Reset(p.rrr, 0, s.a)
				r1 = it.Rank1()
			} else {
				r1 = p.bits.Rank1(s.a)
			}
			oi0 := oi
			for pos := s.a; pos < s.b; pos += 64 {
				c := min(64, s.b-pos)
				var w uint64
				if p.rrr != nil {
					w = it.NextBits(c)
				} else {
					w = bitvec.ReadBits(p.bits.Words(), pos, c)
				}
				for j := 0; j < c; j++ {
					e := cur[i]
					i++
					bit := w >> uint(j) & 1
					e.acc = e.acc<<1 | bit
					if last {
						dst[e.at] = e.acc
						continue
					}
					zbuf[zi], obuf[oi] = e, e
					zi += int(bit ^ 1)
					oi += int(bit)
				}
			}
			in := oi - oi0 // the run's ones
			next = appendSpan(next, s.a-r1, s.b-r1-in)
			ones = appendSpan(ones, p.zeros+r1, p.zeros+r1+in)
		}
		if last {
			break
		}
		copy(zbuf[zi:], obuf[:oi])
		cur, zbuf = zbuf, cur
		for _, s := range ones {
			next = appendSpan(next, s.a, s.b)
		}
		spans, next = next, spans
	}
	return dst
}

// appendSpan appends [a, b) to spans, extending the last run when the two
// touch and dropping an empty one.
func appendSpan(spans []span, a, b int) []span {
	switch {
	case a == b:
		return spans
	case len(spans) > 0 && spans[len(spans)-1].b == a:
		spans[len(spans)-1].b = b
		return spans
	}
	return append(spans, span{a, b})
}
