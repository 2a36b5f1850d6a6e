package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dfuds"
	"repro/internal/rrr"
)

// This file implements the sequential enumeration layer of the frozen
// trie: the §5 "sequential access" algorithm over the succinct
// components. Repeated Access costs O(|s| + h·C_rank) per element, each
// step paying an RRR Rank1 (superblock seek + block decode) per trie
// level. The enumerator instead walks the trie once: every traversed
// node is entered with a single RRR rank to find its start and then
// advanced with O(1) amortized streaming rrr.Iter reads, so extracting
// element i costs O(|sᵢ|) plus amortized shared-path work. Compaction,
// Snapshot.Slice and MarshalBinary exports build on this layer.

// iterNode is the enumeration state of one traversed trie node: where
// its label sits in L, its segment's directory entry (fetched once), a
// streaming bit iterator positioned at the next unread element of the
// node's subsequence, plus lazily-opened children.
type iterNode struct {
	nd            dfuds.BinaryNode
	labLo, labLen int
	// Segment start and the ones before it; it is nil for leaves.
	start, onesBefore int
	it                *rrr.Iter
	pos               int // position in this node's subsequence of the next unread bit
	kids              [2]*iterNode
}

func (t *Trie) newIterNode(nd dfuds.BinaryNode, pos int) *iterNode {
	lo, hi := t.labelRange(nd)
	in := &iterNode{nd: nd, labLo: lo, labLen: hi - lo, pos: pos}
	if !t.tree.IsLeaf(nd.Pos) {
		in.start, in.onesBefore = t.segStart(nd.InternalIndex())
		in.it = t.bits.Iter(in.start + pos)
	}
	return in
}

// next appends the current element's remaining suffix (from in down) to
// b and advances the iterators along the taken path.
func (t *Trie) next(in *iterNode, b *bitstr.Builder) {
	for {
		b.AppendRange(t.labels.Words(), in.labLo, in.labLen)
		if in.it == nil {
			return
		}
		bit := in.it.Next()
		cur := in.pos
		in.pos++
		b.AppendBit(bit)
		child := in.kids[bit]
		if child == nil {
			// First traversal through this child: one Rank to find its start.
			at := t.bits.Rank1(in.start+cur) - in.onesBefore
			if bit == 0 {
				at = cur - at
			}
			child = t.newIterNode(t.tree.BinaryChild(in.nd, bit), at)
			in.kids[bit] = child
		}
		in = child
	}
}

// Iter is a pull-style in-order enumerator over a position range of the
// trie. It is not safe for concurrent use (the underlying Trie is; each
// goroutine should take its own Iter).
type Iter struct {
	t        *Trie
	root     *iterNode
	pos, end int
}

// Iter returns an enumerator over the elements of positions [l, r).
func (t *Trie) Iter(l, r int) *Iter {
	if l < 0 || r > t.n || l > r {
		panic(fmt.Sprintf("succinct: Iter range [%d,%d) out of range [0,%d)", l, r, t.n))
	}
	it := &Iter{t: t, pos: l, end: r}
	if l < r {
		it.root = t.newIterNode(t.tree.BinaryRoot(), l)
	}
	return it
}

// Valid reports whether Next has elements left to return.
func (it *Iter) Valid() bool { return it.pos < it.end }

// Pos returns the position the next call to Next will yield.
func (it *Iter) Pos() int { return it.pos }

// Next returns the element at the current position and advances. It
// panics when the range is exhausted (guard with Valid).
func (it *Iter) Next() bitstr.BitString {
	b := bitstr.NewBuilder(0)
	it.NextInto(b)
	return b.BitString()
}

// NextInto appends the element at the current position to b and advances —
// the allocation-free form of Next for streaming consumers that reuse one
// scratch builder (Reset + NextInto + View per element). It panics when
// the range is exhausted (guard with Valid).
func (it *Iter) NextInto(b *bitstr.Builder) {
	if it.pos >= it.end {
		panic("succinct: Next past the end of the iterated range")
	}
	it.t.next(it.root, b)
	it.pos++
}

// EnumerateBits calls fn with each element of positions [l, r) in
// order, stopping early if fn returns false — the ForEach form of Iter.
func (t *Trie) EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool) {
	it := t.Iter(l, r)
	for it.Valid() {
		pos := it.Pos()
		if !fn(pos, it.Next()) {
			return
		}
	}
}
