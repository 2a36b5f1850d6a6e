package core

import (
	"fmt"
	"sort"

	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/dynbv"
)

// This file implements the §5 range-query algorithms once, for every
// representation of the trie: they are generic over a Cursor, the four
// things they need to know of a node. The pointer tries (AppendOnly,
// Dynamic) walk their nodes through ptr below; the succinct trie of
// package succinct walks its shape bitmap through a cursor of its own.
// C_op below refers to the per-operation bitvector cost: O(1) for the
// succinct trie and AppendOnly, O(log n) for Dynamic.

// Cursor is a Wavelet Trie node as §5's range algorithms see it. C is the
// implementing type itself, so that the algorithms are instantiated per
// representation and no node is ever boxed.
type Cursor[C any] interface {
	// AppendLabel appends the node's label α to b.
	AppendLabel(b *bitstr.Builder)
	// IsLeaf reports whether the node is a leaf.
	IsLeaf() bool
	// Zeros returns the number of 0 bits before position pos of the
	// node's β (pos may be |β|); only internal nodes are asked.
	Zeros(pos int) int
	// Child returns the internal node's bit-child.
	Child(bit byte) C
}

// ptr is a pointer-trie node as a Cursor.
type ptr struct{ nd *node }

func (p ptr) AppendLabel(b *bitstr.Builder) { b.Append(p.nd.Label()) }
func (p ptr) IsLeaf() bool                  { return p.nd.IsLeaf() }
func (p ptr) Zeros(pos int) int             { return p.nd.Payload.Rank(0, pos) }
func (p ptr) Child(bit byte) ptr            { return ptr{p.nd.Child(bit)} }

// checkRange panics unless [l, r) is a window of a sequence of n.
func checkRange(op string, l, r, n int) {
	if l < 0 || r > n || l > r {
		panic(fmt.Sprintf("core: %s [%d,%d) out of range [0,%d)", op, l, r, n))
	}
}

// EnumerateBits calls fn with each element of positions [l, r) in order,
// stopping early if fn returns false. It is the "sequential access"
// algorithm of §5: every traversed node is entered with a single Rank and
// then advanced with O(1) iterators, so extracting element i costs
// O(|sᵢ|) plus amortized shared-path work instead of O(|sᵢ| + h·C_op)
// per element for repeated Access. Every element is decoded into one
// scratch builder: fn receives a view of it, valid only for that call.
func (w *wtrie) EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool) {
	checkRange("Enumerate", l, r, w.n)
	if l == r {
		return
	}
	var slab enumSlab
	root := slab.open(w.t.Root(), l)
	b := bitstr.NewBuilder(0)
	for pos := l; pos < r; pos++ {
		b.Reset()
		root.next(b, &slab)
		if !fn(pos, b.View()) {
			return
		}
	}
}

// enumState holds a lazily-opened iterator per traversed node.
type enumState struct {
	nd   *node
	it   bitIter       // nil on a leaf; &ait on an AppendOnly node, a slab cursor on a Dynamic one
	ait  appendbv.Iter // the cursor over an AppendOnly node's β, in place
	pos  int           // position in nd's subsequence of the next unread bit
	kids [2]*enumState
}

// enumSlab hands out the enumStates of one walk — and the cursors over
// a Dynamic node's β, which are too large to sit in every state — a chunk
// at a time, so opening a node allocates at most once per enumChunk
// nodes, and a chunk, never grown, keeps the addresses fixed.
type enumSlab struct {
	states []enumState
	dyn    []dynbv.Iter
}

const enumChunk = 32

// open returns the state of nd, its cursor at position pos of nd's
// subsequence.
func (s *enumSlab) open(nd *node, pos int) *enumState {
	if len(s.states) == cap(s.states) {
		s.states = make([]enumState, 0, enumChunk)
	}
	s.states = append(s.states, enumState{nd: nd, pos: pos})
	es := &s.states[len(s.states)-1]
	if nd.IsLeaf() {
		return es
	}
	switch bv := nd.Payload.(type) {
	case *appendbv.Vector:
		es.ait = bv.Iter(pos)
		es.it = &es.ait
	case *dynbv.Vector:
		if len(s.dyn) == cap(s.dyn) {
			s.dyn = make([]dynbv.Iter, 0, enumChunk)
		}
		s.dyn = append(s.dyn, bv.Iter(pos))
		es.it = &s.dyn[len(s.dyn)-1]
	default:
		es.it = iterAt(bv, pos)
	}
	return es
}

// next appends the current element's remaining suffix (from this node
// down) to b and advances the iterators, opening a child from slab the
// first time the walk takes it.
func (es *enumState) next(b *bitstr.Builder, slab *enumSlab) {
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
		child = slab.open(es.nd.Child(bit), es.nd.Payload.Rank(bit, cur))
		es.kids[bit] = child
	}
	child.next(b, slab)
}

// DistinctResult is one distinct value found in a range, with its number
// of occurrences in that range.
type DistinctResult struct {
	Value bitstr.BitString
	Count int
}

// DistinctInRange enumerates the distinct values occurring in positions
// [l, r) of the n-element trie under root, with their in-range counts
// (§5 "distinct values in range"), in lexicographic order. The cost is
// O(Σ(|s| + h_s·C_op)) over the distinct values only — independent of
// r-l.
func DistinctInRange[C Cursor[C]](root C, n, l, r int) []DistinctResult {
	checkRange("DistinctInRange", l, r, n)
	var out []DistinctResult
	VisitBranches(root, n, l, r, func(path bitstr.BitString, count int, isLeaf bool) bool {
		if isLeaf {
			out = append(out, DistinctResult{Value: path, Count: count})
		}
		return true
	})
	return out
}

// RangeMajority returns the element occurring more than (r-l)/2 times in
// positions [l, r), if any (§5 "range majority element"). The cost is
// O(h_s·C_op) on success and O(h·C_op) on failure.
func RangeMajority[C Cursor[C]](root C, n, l, r int) (bitstr.BitString, bool) {
	checkRange("RangeMajority", l, r, n)
	if l == r {
		return bitstr.Empty, false
	}
	need := (r - l) / 2 // must occur strictly more than this
	b := bitstr.NewBuilder(0)
	nd, lo, hi := root, l, r
	for {
		nd.AppendLabel(b)
		if nd.IsLeaf() {
			return b.BitString(), true
		}
		z0, z1 := nd.Zeros(lo), nd.Zeros(hi)
		switch {
		case z1-z0 > need:
			b.AppendBit(0)
			nd, lo, hi = nd.Child(0), z0, z1
		case (hi-z1)-(lo-z0) > need:
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
func RangeThreshold[C Cursor[C]](root C, n, l, r, t int) []DistinctResult {
	checkRange("RangeThreshold", l, r, n)
	if t < 1 {
		panic("core: RangeThreshold: t must be >= 1")
	}
	var out []DistinctResult
	VisitBranches(root, n, l, r, func(path bitstr.BitString, count int, isLeaf bool) bool {
		if count < t {
			return false
		}
		if isLeaf {
			out = append(out, DistinctResult{Value: path, Count: count})
		}
		return true
	})
	return out
}

// VisitBranches walks the trie restricted to positions [l, r) in
// lexicographic order, calling visit at every node whose subsequence is
// non-empty with the accumulated path prefix (labels and branch bits up to
// and including the node's own label), the in-range count, and whether the
// node is a leaf. Returning false prunes the subtree — the §5 mechanism
// for "stopping early in the traversal, enumerating the distinct prefixes
// that satisfy some property" (e.g. distinct hostnames in a time range).
func VisitBranches[C Cursor[C]](root C, n, l, r int, visit func(prefix bitstr.BitString, count int, isLeaf bool) bool) {
	checkRange("VisitBranches", l, r, n)
	if l < r {
		visitBranches(root, bitstr.Empty, l, r, visit)
	}
}

func visitBranches[C Cursor[C]](nd C, prefix bitstr.BitString, lo, hi int, visit func(bitstr.BitString, int, bool) bool) {
	b := bitstr.NewBuilder(prefix.Len() + 64)
	b.Append(prefix)
	nd.AppendLabel(b)
	path := b.BitString()
	if leaf := nd.IsLeaf(); !visit(path, hi-lo, leaf) || leaf {
		return
	}
	z0, z1 := nd.Zeros(lo), nd.Zeros(hi)
	if z1 > z0 {
		visitBranches(nd.Child(0), path.AppendBit(0), z0, z1, visit)
	}
	if o0, o1 := lo-z0, hi-z1; o1 > o0 {
		visitBranches(nd.Child(1), path.AppendBit(1), o0, o1, visit)
	}
}

// TopKInRange returns the k most frequent values in [l, r) (ties broken
// lexicographically) — the "power-law friendly" analytics query the §5
// heuristic motivates. k ≤ 0 asks for nothing, but the window is checked
// all the same.
func TopKInRange[C Cursor[C]](root C, n, l, r, k int) []DistinctResult {
	checkRange("TopKInRange", l, r, n)
	if k <= 0 {
		return nil
	}
	all := DistinctInRange(root, n, l, r)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return bitstr.Compare(all[i].Value, all[j].Value) < 0
	})
	return all[:min(k, len(all))]
}

// The pointer tries' §5 methods: the kernel, run from the root.

// DistinctInRange returns the distinct values of positions [l, r) with
// their in-range counts, in lexicographic order.
func (w *wtrie) DistinctInRange(l, r int) []DistinctResult {
	return DistinctInRange(ptr{w.t.Root()}, w.n, l, r)
}

// RangeMajority returns the value occurring more than (r-l)/2 times in
// [l, r), if any.
func (w *wtrie) RangeMajority(l, r int) (bitstr.BitString, bool) {
	return RangeMajority(ptr{w.t.Root()}, w.n, l, r)
}

// RangeThreshold returns the values occurring at least t times in
// [l, r), with counts.
func (w *wtrie) RangeThreshold(l, r, t int) []DistinctResult {
	return RangeThreshold(ptr{w.t.Root()}, w.n, l, r, t)
}

// VisitBranches walks the trie restricted to [l, r) in lexicographic
// order, pruning where visit says so.
func (w *wtrie) VisitBranches(l, r int, visit func(prefix bitstr.BitString, count int, isLeaf bool) bool) {
	VisitBranches(ptr{w.t.Root()}, w.n, l, r, visit)
}

// TopKInRange returns the k most frequent values in [l, r).
func (w *wtrie) TopKInRange(l, r, k int) []DistinctResult {
	return TopKInRange(ptr{w.t.Root()}, w.n, l, r, k)
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
