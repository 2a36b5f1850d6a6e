package core

import (
	"fmt"
	"sort"

	"repro/internal/bitstr"
)

// This file implements the §5 range-query algorithms, shared by all three
// variants. C_op below refers to the per-operation bitvector cost: O(1)
// for Static and AppendOnly, O(log n) for Dynamic.

// EnumerateBits calls fn with each element of positions [l, r) in order,
// stopping early if fn returns false. It is the "sequential access"
// algorithm of §5: every traversed node is entered with a single Rank and
// then advanced with O(1) iterators, so extracting element i costs
// O(|sᵢ|) plus amortized shared-path work instead of O(|sᵢ| + h·C_op)
// per element for repeated Access.
func (w *wtrie) EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool) {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: Enumerate range [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	if l == r {
		return
	}
	root := newEnumState(w.t.Root(), l)
	for pos := l; pos < r; pos++ {
		b := bitstr.NewBuilder(0)
		root.next(b)
		if !fn(pos, b.BitString()) {
			return
		}
	}
}

// FeedBits is EnumerateBits with a reused scratch builder: fn receives a
// BitString view that aliases the scratch storage and is valid only for
// the duration of the call. Streaming consumers that copy each element
// into their own accumulator (e.g. the succinct freeze builder) use it to
// enumerate without a per-element allocation.
func (w *wtrie) FeedBits(l, r int, fn func(s bitstr.BitString) bool) {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: FeedBits range [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	if l == r {
		return
	}
	root := newEnumState(w.t.Root(), l)
	b := bitstr.NewBuilder(0)
	for pos := l; pos < r; pos++ {
		b.Reset()
		root.next(b)
		if !fn(b.View()) {
			return
		}
	}
}

// enumState holds a lazily-opened iterator per traversed node.
type enumState struct {
	nd   *node
	it   bitIter
	pos  int // position in nd's subsequence of the next unread bit
	kids [2]*enumState
}

func newEnumState(nd *node, pos int) *enumState {
	es := &enumState{nd: nd, pos: pos}
	if !nd.IsLeaf() {
		es.it = iterAt(nd.Payload, pos)
	}
	return es
}

// next appends the current element's remaining suffix (from this node
// down) to b and advances the iterators.
func (es *enumState) next(b *bitstr.Builder) {
	b.Append(es.nd.Label())
	if es.nd.IsLeaf() {
		return
	}
	bit := es.it.Next()
	cur := es.pos
	es.pos++
	b.AppendBit(bit)
	child := es.kids[bit]
	if child == nil {
		// First traversal through this child: one Rank to find the start.
		child = newEnumState(es.nd.Child(bit), es.nd.Payload.Rank(bit, cur))
		es.kids[bit] = child
	}
	child.next(b)
}

// DistinctResult is one distinct value found in a range, with its number
// of occurrences in that range.
type DistinctResult struct {
	Value bitstr.BitString
	Count int
}

// DistinctInRange enumerates the distinct values occurring in positions
// [l, r) together with their in-range counts (§5 "distinct values in
// range"), in lexicographic order. The cost is O(Σ(|s| + h_s·C_op)) over
// the distinct values only — independent of r-l.
func (w *wtrie) DistinctInRange(l, r int) []DistinctResult {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: DistinctInRange [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	var out []DistinctResult
	if l == r {
		return out
	}
	var rec func(nd *node, prefix bitstr.BitString, lo, hi int)
	rec = func(nd *node, prefix bitstr.BitString, lo, hi int) {
		path := bitstr.Concat(prefix, nd.Label())
		if nd.IsLeaf() {
			out = append(out, DistinctResult{Value: path, Count: hi - lo})
			return
		}
		bv := nd.Payload
		z0, z1 := bv.Rank(0, lo), bv.Rank(0, hi)
		if z1 > z0 {
			rec(nd.Child(0), path.AppendBit(0), z0, z1)
		}
		o0, o1 := lo-z0, hi-z1
		if o1 > o0 {
			rec(nd.Child(1), path.AppendBit(1), o0, o1)
		}
	}
	rec(w.t.Root(), bitstr.Empty, l, r)
	return out
}

// RangeMajority returns the element occurring more than (r-l)/2 times in
// positions [l, r), if any (§5 "range majority element"). The cost is
// O(h_s·C_op) on success and O(h·C_op) on failure.
func (w *wtrie) RangeMajority(l, r int) (bitstr.BitString, bool) {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: RangeMajority [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	if l >= r {
		return bitstr.Empty, false
	}
	need := (r - l) / 2 // must occur strictly more than this
	b := bitstr.NewBuilder(0)
	nd := w.t.Root()
	lo, hi := l, r
	for {
		b.Append(nd.Label())
		if nd.IsLeaf() {
			return b.BitString(), true
		}
		bv := nd.Payload
		z0, z1 := bv.Rank(0, lo), bv.Rank(0, hi)
		zeros := z1 - z0
		ones := (hi - lo) - zeros
		switch {
		case zeros > need:
			b.AppendBit(0)
			nd, lo, hi = nd.Child(0), z0, z1
		case ones > need:
			b.AppendBit(1)
			nd, lo, hi = nd.Child(1), lo-z0, hi-z1
		default:
			return bitstr.Empty, false
		}
	}
}

// RangeThreshold returns all values occurring at least t times in
// positions [l, r), with counts, pruning every branch whose subsequence
// already falls below t (§5's heuristic; exact because a value's count
// never exceeds its branch count). t must be ≥ 1.
func (w *wtrie) RangeThreshold(l, r, t int) []DistinctResult {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: RangeThreshold [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	if t < 1 {
		panic("core: RangeThreshold: t must be >= 1")
	}
	var out []DistinctResult
	if r-l < t {
		return out
	}
	var rec func(nd *node, prefix bitstr.BitString, lo, hi int)
	rec = func(nd *node, prefix bitstr.BitString, lo, hi int) {
		if hi-lo < t {
			return
		}
		path := bitstr.Concat(prefix, nd.Label())
		if nd.IsLeaf() {
			out = append(out, DistinctResult{Value: path, Count: hi - lo})
			return
		}
		bv := nd.Payload
		z0, z1 := bv.Rank(0, lo), bv.Rank(0, hi)
		rec(nd.Child(0), path.AppendBit(0), z0, z1)
		rec(nd.Child(1), path.AppendBit(1), lo-z0, hi-z1)
	}
	rec(w.t.Root(), bitstr.Empty, l, r)
	return out
}

// VisitBranches walks the trie restricted to positions [l, r) in
// lexicographic order, calling visit at every node whose subsequence is
// non-empty with the accumulated path prefix (labels and branch bits up to
// and including the node's own label), the in-range count, and whether the
// node is a leaf. Returning false prunes the subtree — the §5 mechanism
// for "stopping early in the traversal, enumerating the distinct prefixes
// that satisfy some property" (e.g. distinct hostnames in a time range).
func (w *wtrie) VisitBranches(l, r int, visit func(prefix bitstr.BitString, count int, isLeaf bool) bool) {
	if l < 0 || r > w.n || l > r {
		panic(fmt.Sprintf("core: VisitBranches [%d,%d) out of range [0,%d)", l, r, w.n))
	}
	if l == r || w.t.Root() == nil {
		return
	}
	var rec func(nd *node, prefix bitstr.BitString, lo, hi int)
	rec = func(nd *node, prefix bitstr.BitString, lo, hi int) {
		path := bitstr.Concat(prefix, nd.Label())
		if !visit(path, hi-lo, nd.IsLeaf()) || nd.IsLeaf() {
			return
		}
		bv := nd.Payload
		z0, z1 := bv.Rank(0, lo), bv.Rank(0, hi)
		if z1 > z0 {
			rec(nd.Child(0), path.AppendBit(0), z0, z1)
		}
		if o0, o1 := lo-z0, hi-z1; o1 > o0 {
			rec(nd.Child(1), path.AppendBit(1), o0, o1)
		}
	}
	rec(w.t.Root(), bitstr.Empty, l, r)
}

// TopKInRange returns the k most frequent values in [l, r) (ties broken
// lexicographically), computed by traversing the trie best-first — the
// "power-law friendly" analytics query the §5 heuristic motivates.
func (w *wtrie) TopKInRange(l, r, k int) []DistinctResult {
	if k <= 0 {
		return nil
	}
	all := w.DistinctInRange(l, r)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return bitstr.Compare(all[i].Value, all[j].Value) < 0
	})
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// DumpNode is a neutral structural description of a Wavelet Trie node,
// used by golden tests (Figures 2 and 3 of the paper) and debugging.
type DumpNode struct {
	Label string      // the node label α as a '0'/'1' pattern
	Bits  string      // the bitvector β contents; empty for leaves
	Kids  []*DumpNode // nil for leaves, else exactly two children
}

// Dump materializes the trie structure with bitvector contents. Cost is
// O(h̃n); intended for tests and small structures.
func (w *wtrie) Dump() *DumpNode {
	if w.t.Root() == nil {
		return nil
	}
	var rec func(nd *node) *DumpNode
	rec = func(nd *node) *DumpNode {
		d := &DumpNode{Label: nd.Label().String()}
		if nd.IsLeaf() {
			return d
		}
		bv := nd.Payload
		buf := make([]byte, bv.Len())
		it := iterAt(bv, 0)
		for i := range buf {
			buf[i] = '0' + it.Next()
		}
		d.Bits = string(buf)
		d.Kids = []*DumpNode{rec(nd.Child(0)), rec(nd.Child(1))}
		return d
	}
	return rec(w.t.Root())
}
