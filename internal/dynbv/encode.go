package dynbv

import (
	"fmt"

	"repro/internal/elias"
	"repro/internal/wire"
)

// Run is one maximal block of equal bits in the normalized RLE view.
type Run struct {
	Bit byte
	N   int
}

// Runs returns the normalized run-length encoding of the bitvector: the
// maximal runs in order, with adjacent equal-bit runs (which can straddle
// leaf boundaries) fused. An empty vector yields nil.
func (v *Vector) Runs() []Run {
	var out []Run
	v.root.visitRuns(func(b byte, n int) {
		if k := len(out); k > 0 && out[k-1].Bit == b {
			out[k-1].N += n
			return
		}
		out = append(out, Run{b, n})
	})
	return out
}

func (nd *node) visitRuns(f func(bit byte, n int)) {
	if nd.isLeaf() {
		for _, r := range nd.runs {
			if r.n > 0 {
				f(r.bit, r.n)
			}
		}
		return
	}
	for _, k := range nd.kids {
		k.visitRuns(f)
	}
}

// RunCount returns the number of maximal runs (after normalization).
func (v *Vector) RunCount() int {
	count := 0
	last := byte(2)
	v.root.visitRuns(func(b byte, n int) {
		if b != last {
			count++
			last = b
		}
	})
	return count
}

// EncodedSizeBits returns the exact size in bits of the Elias-γ RLE
// encoding of the bitvector: one leading bit for the first run's value
// followed by γ codes of the maximal run lengths. This is the quantity
// Theorem 4.9's O(nH₀ + log n) space bound refers to.
func (v *Vector) EncodedSizeBits() int {
	bits := 1
	last := byte(2)
	acc := 0
	flush := func() {
		if acc > 0 {
			bits += elias.GammaLen(uint64(acc))
			acc = 0
		}
	}
	v.root.visitRuns(func(b byte, n int) {
		if b != last {
			flush()
			last = b
		}
		acc += n
	})
	flush()
	return bits
}

// SizeBits returns the in-memory footprint in bits: the γ-encoded payload
// plus the balanced-tree directory (a constant number of words per node,
// as in [18]).
func (v *Vector) SizeBits() int {
	nodes := 0
	v.root.countNodes(&nodes)
	const wordsPerNode = 4 // pointer + bits + ones + slice header amortized
	return v.EncodedSizeBits() + nodes*wordsPerNode*64
}

func (nd *node) countNodes(n *int) {
	*n++
	for _, k := range nd.kids {
		k.countNodes(n)
	}
}

// EncodeRLE serializes the bitvector into the actual γ bit stream:
// γ(len+1) header, then for non-empty vectors the first bit and γ codes of
// every maximal run. It returns the packed words and the bit length.
func (v *Vector) EncodeRLE() ([]uint64, int) {
	var w elias.Writer
	w.WriteGamma(uint64(v.Len()) + 1)
	if v.Len() == 0 {
		return append([]uint64(nil), w.Words()...), w.Len()
	}
	runs := v.Runs()
	w.WriteBit(runs[0].Bit)
	for _, r := range runs {
		w.WriteGamma(uint64(r.N))
	}
	return append([]uint64(nil), w.Words()...), w.Len()
}

// DecodeRLE reconstructs a Vector from a stream produced by EncodeRLE.
func DecodeRLE(words []uint64, nbits int) (v *Vector, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, fmt.Errorf("dynbv: DecodeRLE: malformed stream: %v", r)
		}
	}()
	rd := elias.NewReader(words, nbits)
	total := int(rd.ReadGamma() - 1)
	v = New()
	if total == 0 {
		return v, nil
	}
	bit := rd.ReadBit()
	got := 0
	for got < total {
		n := int(rd.ReadGamma())
		v.AppendRun(bit, n)
		got += n
		bit ^= 1
	}
	if got != total {
		return nil, fmt.Errorf("dynbv: DecodeRLE: runs sum to %d, header says %d", got, total)
	}
	return v, nil
}

// EncodeTo serializes the bitvector into w as its Elias-γ RLE stream —
// the exact encoding Theorem 4.9's space bound is stated in. The
// balanced-tree directory is rebuilt on decode.
func (v *Vector) EncodeTo(w *wire.Writer) {
	words, nbits := v.EncodeRLE()
	w.Int(nbits)
	w.Words(words)
}

// DecodeFrom reads a vector serialized by EncodeTo; errors are recorded
// on r. A malformed γ stream is rejected, never panics.
func DecodeFrom(r *wire.Reader) *Vector {
	nbits := r.Int()
	words := r.Words()
	if r.Err() != nil {
		return New()
	}
	if nbits < 0 || nbits > len(words)*64 {
		r.Fail("dynbv: RLE stream of %d bits in %d words", nbits, len(words))
		return New()
	}
	v, err := DecodeRLE(words, nbits)
	if err != nil {
		r.Fail("%v", err)
		return New()
	}
	return v
}

// Iter returns a sequential bit cursor positioned at pos with O(1)
// amortized Next. The vector must not be mutated while iterating. The
// cursor is a value: a caller that keeps one per open node (a wavelet
// trie walk) holds it in place, with no allocation.
func (v *Vector) Iter(pos int) Iter {
	if pos < 0 || pos > v.Len() {
		panic(fmt.Sprintf("dynbv: Iter(%d) out of range [0,%d]", pos, v.Len()))
	}
	it := Iter{v: v, pos: pos}
	if pos < v.Len() {
		it.descend(v.root, pos)
	}
	return it
}

// maxDepth bounds the run tree's internal levels: the root has at least
// two children and every other internal node at least minKids, so h
// levels hold at least 2·4^(h−1) leaves and a tree of fewer than 2^63
// leaves is at most 31 levels deep.
const maxDepth = 32

// Iter walks the leaves of the run tree keeping an explicit stack, in a
// fixed array: the frames of the internal nodes above the current leaf.
type Iter struct {
	v     *Vector
	pos   int
	stack [maxDepth]iterFrame
	depth int // frames in use
	leaf  *node
	ri    int // index of current run in leaf
	off   int // offset within current run
}

type iterFrame struct {
	nd *node
	ki int
}

// push records that the walk entered kid ki of nd.
func (it *Iter) push(nd *node, ki int) {
	if it.depth == maxDepth {
		panic("dynbv: Iter: run tree deeper than its bound")
	}
	it.stack[it.depth] = iterFrame{nd, ki}
	it.depth++
}

func (it *Iter) descend(nd *node, rel int) {
	for !nd.isLeaf() {
		for i, k := range nd.kids {
			if rel < k.bits {
				it.push(nd, i)
				nd = k
				goto next
			}
			rel -= k.bits
		}
		panic("dynbv: Iter: tree counts inconsistent")
	next:
	}
	it.leaf = nd
	it.ri = 0
	for it.ri < len(nd.runs) && rel >= nd.runs[it.ri].n {
		rel -= nd.runs[it.ri].n
		it.ri++
	}
	it.off = rel
}

// Valid reports whether Next may be called.
func (it *Iter) Valid() bool { return it.pos < it.v.Len() }

// Next returns the current bit and advances.
func (it *Iter) Next() byte {
	if !it.Valid() {
		panic("dynbv: Iter.Next past end")
	}
	b := it.leaf.runs[it.ri].bit
	it.pos++
	it.off++
	if it.off < it.leaf.runs[it.ri].n {
		return b
	}
	it.off = 0
	it.ri++
	if it.ri < len(it.leaf.runs) {
		return b
	}
	// Advance to the leftmost run of the next non-empty leaf.
	for it.depth > 0 {
		top := &it.stack[it.depth-1]
		top.ki++
		if top.ki < len(top.nd.kids) {
			it.descendLeft(top.nd.kids[top.ki])
			if len(it.leaf.runs) > 0 {
				return b
			}
			continue // empty leaf; keep scanning siblings
		}
		it.depth--
	}
	it.leaf = nil // exhausted
	return b
}

func (it *Iter) descendLeft(nd *node) {
	for !nd.isLeaf() {
		it.push(nd, 0)
		nd = nd.kids[0]
	}
	it.leaf = nd
	it.ri = 0
	it.off = 0
}
