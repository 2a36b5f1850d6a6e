package succinct

import (
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dfuds"
)

// This file runs §5's range algorithms — written once, in package core,
// over a core.Cursor — on the succinct components.

// rangeNode is a node as the §5 kernel walks it: its place in the shape
// bitmap and, for an internal node, where its β segment starts, so that
// each rank on it is one segment-relative RRR rank from there.
type rangeNode struct {
	t     *Trie
	nd    dfuds.BinaryNode
	start int // an internal node's segment start
}

func (t *Trie) rangeNode(nd dfuds.BinaryNode) rangeNode {
	n := rangeNode{t: t, nd: nd}
	if !t.tree.IsLeaf(nd.Pos) {
		n.start = t.segStart(nd.Internal)
	}
	return n
}

// rangeRoot returns the root as a cursor; the zero cursor for an empty
// trie, which the kernel never looks at (every window of it is empty).
func (t *Trie) rangeRoot() rangeNode {
	if t.tree == nil {
		return rangeNode{}
	}
	return t.rangeNode(t.tree.BinaryRoot())
}

func (n rangeNode) AppendLabel(b *bitstr.Builder) { n.t.appendLabel(b, n.nd) }
func (n rangeNode) IsLeaf() bool                  { return n.t.tree.IsLeaf(n.nd.Pos) }
func (n rangeNode) Zeros(pos int) int             { return pos - n.t.bits.RankIn(n.start, pos) }
func (n rangeNode) Child(bit byte) rangeNode {
	return n.t.rangeNode(n.t.tree.BinaryChild(n.nd, bit))
}

// AvgHeight returns h̃, the average number of internal nodes on an
// element's root-to-leaf path (Definition 3.4): the concatenated β's
// length over n; 0 for an empty trie.
func (t *Trie) AvgHeight() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.bits.Len()) / float64(t.n)
}

// DistinctInRange returns the distinct values of positions [l, r) with
// their in-range counts, in lexicographic order (core.DistinctInRange).
func (t *Trie) DistinctInRange(l, r int) []core.DistinctResult {
	return core.DistinctInRange(t.rangeRoot(), t.n, l, r)
}

// RangeMajority returns the value occurring more than (r-l)/2 times in
// [l, r), if any (core.RangeMajority).
func (t *Trie) RangeMajority(l, r int) (bitstr.BitString, bool) {
	return core.RangeMajority(t.rangeRoot(), t.n, l, r)
}

// RangeThreshold returns the values occurring at least th times in
// [l, r), with counts (core.RangeThreshold).
func (t *Trie) RangeThreshold(l, r, th int) []core.DistinctResult {
	return core.RangeThreshold(t.rangeRoot(), t.n, l, r, th)
}

// TopKInRange returns the k most frequent values in [l, r)
// (core.TopKInRange).
func (t *Trie) TopKInRange(l, r, k int) []core.DistinctResult {
	return core.TopKInRange(t.rangeRoot(), t.n, l, r, k)
}

// VisitBranches walks the trie restricted to [l, r) in lexicographic
// order, pruning where visit says so (core.VisitBranches).
func (t *Trie) VisitBranches(l, r int, visit func(prefix bitstr.BitString, count int, isLeaf bool) bool) {
	core.VisitBranches(t.rangeRoot(), t.n, l, r, visit)
}
