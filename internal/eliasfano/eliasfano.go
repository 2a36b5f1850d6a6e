// Package eliasfano implements the Elias–Fano encoding of monotone integer
// sequences, the succinct partial-sum structure the paper uses (citing
// [22]) to delimit the concatenated trie labels L and the concatenated RRR
// encodings of the per-node bitvectors (§3, Lemma A.5).
//
// A non-decreasing sequence of k values in [0,u) is stored in
// k·⌈log₂(u/k)⌉ + 2k + o(k) bits: the low ⌊log₂(u/k)⌋ bits of each value
// verbatim, the high bits as a unary-coded bitvector navigated by Select.
// Random access is one hinted Select1 (see bitvec.IndexSelect1); reading
// two consecutive values — the delimiters of one item — costs that one
// select plus a forward scan to the next set bit.
package eliasfano

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
)

// Monotone is an immutable Elias–Fano encoded non-decreasing sequence.
type Monotone struct {
	k        int
	universe uint64
	lowBits  int
	lows     []uint64       // packed low halves, lowBits each
	highs    *bitvec.Vector // unary-coded high halves
}

// FromSorted encodes vals, which must be non-decreasing with every value
// < universe. The input is not retained.
func FromSorted(vals []uint64, universe uint64) *Monotone {
	if universe == 0 {
		universe = 1
	}
	k := len(vals)
	m := &Monotone{k: k, universe: universe}
	if k == 0 {
		m.setHighs(bitvec.NewBuilder(0).Build())
		return m
	}
	// lowBits = floor(log2(u/k)), clamped to [0,63].
	l := 0
	if universe/uint64(k) > 1 {
		l = bits.Len64(universe/uint64(k)) - 1
	}
	m.lowBits = l
	m.lows = make([]uint64, (k*l+63)/64)
	hb := bitvec.NewBuilder(k + int(universe>>uint(l)) + 1)
	var prev uint64
	pos := 0
	prevHigh := uint64(0)
	for i, v := range vals {
		if v >= universe {
			panic(fmt.Sprintf("eliasfano: value %d >= universe %d", v, universe))
		}
		if v < prev {
			panic(fmt.Sprintf("eliasfano: sequence not monotone at index %d (%d after %d)", i, v, prev))
		}
		prev = v
		if l > 0 {
			bitvec.WriteBits(m.lows, pos, v, l)
			pos += l
		}
		high := v >> uint(l)
		for ; prevHigh < high; prevHigh++ {
			hb.AppendBit(0)
		}
		hb.AppendBit(1)
	}
	m.setHighs(hb.Build())
	return m
}

// setHighs installs the high-halves vector with its Select1 hints: Get
// is a Select1 on it, and every trie level of a query pays several.
func (m *Monotone) setHighs(h *bitvec.Vector) {
	h.IndexSelect1()
	m.highs = h
}

// Len returns the number of values.
func (m *Monotone) Len() int { return m.k }

// Get returns value i.
func (m *Monotone) Get(i int) uint64 {
	if i < 0 || i >= m.k {
		panic(fmt.Sprintf("eliasfano: Get(%d) out of range [0,%d)", i, m.k))
	}
	return m.value(i, m.highs.Select1(i))
}

// value assembles value i from the position p of its set bit in highs.
func (m *Monotone) value(i, p int) uint64 {
	return uint64(p-i)<<uint(m.lowBits) | bitvec.ReadBits(m.lows, i*m.lowBits, m.lowBits)
}

// Pair returns values i and i+1 — the two delimiters of item i — from one
// Select1 and a forward scan to the next set bit.
func (m *Monotone) Pair(i int) (uint64, uint64) {
	if i < 0 || i+1 >= m.k {
		panic(fmt.Sprintf("eliasfano: Pair(%d) out of range [0,%d)", i, m.k-1))
	}
	p := m.highs.Select1(i)
	return m.value(i, p), m.value(i+1, m.highs.NextOne(p+1))
}

// Iter reads the sequence front to back: each value costs a scan to the
// next set bit of the high halves instead of Get's Select1.
type Iter struct {
	m    *Monotone
	i, p int // the next index, and where the scan for its set bit starts
}

// Iter returns an Iter at index 0.
func (m *Monotone) Iter() Iter { return Iter{m: m} }

// Next returns the next value; ok is false past the end.
func (it *Iter) Next() (v uint64, ok bool) {
	if it.i >= it.m.k {
		return 0, false
	}
	p := it.m.highs.NextOne(it.p)
	v = it.m.value(it.i, p)
	it.i, it.p = it.i+1, p+1
	return v, true
}

// skipNear is how many indices SkipTo steps over one set bit at a time
// before a hinted Select1 is the cheaper way there.
const skipNear = 8

// SkipTo moves the iterator forward so that Next returns value i (Len()
// for the end): a short hop scans to each skipped set bit, a long one is
// one hinted Select1. A reader of a directory in preorder — the trie's
// page extractor, which passes over the subtrees its batch has nothing
// in — hops mostly by one or two. i must not lie behind the next index.
func (it *Iter) SkipTo(i int) {
	if i < it.i || i > it.m.k {
		panic(fmt.Sprintf("eliasfano: SkipTo(%d) from %d out of range [%d,%d]", i, it.i, it.i, it.m.k))
	}
	if i-it.i <= skipNear || i == it.m.k {
		for ; it.i < i; it.i++ {
			it.p = it.m.highs.NextOne(it.p) + 1
		}
		return
	}
	it.i, it.p = i, it.m.highs.Select1(i)
}

// Predecessor returns the largest index i with Get(i) <= x, or -1 if every
// value exceeds x.
func (m *Monotone) Predecessor(x uint64) int {
	lo, hi := 0, m.k-1
	ans := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if m.Get(mid) <= x {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// SizeBits returns the size of the encoding in bits.
func (m *Monotone) SizeBits() int {
	return len(m.lows)*64 + m.highs.SizeBits()
}

// PartialSum stores k non-negative lengths and answers prefix-sum queries;
// it is the delimiter directory for concatenated variable-length items
// (labels, bitvector encodings). Offset(i) is where item i starts;
// Offset(k) is the total length.
type PartialSum struct {
	mono  *Monotone
	total uint64
}

// NewPartialSum encodes the given item lengths.
func NewPartialSum(lengths []int) *PartialSum {
	sums := make([]uint64, len(lengths)+1)
	var acc uint64
	for i, l := range lengths {
		if l < 0 {
			panic(fmt.Sprintf("eliasfano: negative length %d at index %d", l, i))
		}
		sums[i] = acc
		acc += uint64(l)
	}
	sums[len(lengths)] = acc
	return &PartialSum{mono: FromSorted(sums, acc+1), total: acc}
}

// Count returns the number of items.
func (p *PartialSum) Count() int { return p.mono.Len() - 1 }

// Total returns the sum of all lengths.
func (p *PartialSum) Total() uint64 { return p.total }

// Offset returns the prefix sum of the first i lengths; i ranges over
// [0, Count()].
func (p *PartialSum) Offset(i int) uint64 {
	if i < 0 || i > p.Count() {
		panic(fmt.Sprintf("eliasfano: Offset(%d) out of range [0,%d]", i, p.Count()))
	}
	return p.mono.Get(i)
}

// Range returns the [start, end) offsets of item i, i in [0, Count()).
func (p *PartialSum) Range(i int) (start, end uint64) { return p.mono.Pair(i) }

// Find returns the index of the item containing absolute position x, i.e.
// the largest i with Offset(i) <= x. x must be < Total().
func (p *PartialSum) Find(x uint64) int {
	if x >= p.total {
		panic(fmt.Sprintf("eliasfano: Find(%d) out of range [0,%d)", x, p.total))
	}
	// Predecessor returns the rightmost index whose offset is <= x, which
	// skips any zero-length items sharing that offset; Offset(0) = 0 so the
	// result is always valid, and x < Total() keeps it below Count().
	return p.mono.Predecessor(x)
}

// Offsets returns an Iter over Offset(0) … Offset(Count()).
func (p *PartialSum) Offsets() Iter { return p.mono.Iter() }

// SizeBits returns the size of the encoding in bits.
func (p *PartialSum) SizeBits() int { return p.mono.SizeBits() }
