package succinct

import (
	"fmt"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/dfuds"
	"repro/internal/rrr"
)

// This file implements the sequential enumeration layer of the frozen
// trie: the §5 "sequential access" algorithm over the succinct
// components. Repeated Access costs O(|s| + h·C_rank) per element, each
// step paying an RRR Rank1 (superblock seek + block decode) per trie
// level. The enumerator instead walks the trie once: every traversed
// node is opened with a single RRR block visit and then advanced with
// O(1) amortized streaming rrr.Iter reads, so extracting element i costs
// O(|sᵢ|) plus amortized shared-path work. Compaction, Snapshot.Slice,
// MarshalBinary exports and the prefix cursor's values build on this
// layer.

// iterNode is the enumeration state of one traversed internal node: where
// its label sits in L, a streaming bit cursor over its segment (whose
// directory entry is fetched once, to open it), and its opened children —
// see walk.open for how a child is named.
type iterNode struct {
	nd    dfuds.BinaryNode
	label labelRef
	it    rrr.Iter
	kids  [2]int32
}

// labelRef is a node's label range in L — all a traversed leaf keeps.
type labelRef struct{ lo, n int }

// walk enumerates elements of the subsequence of one trie node (the root,
// for Iter; a prefix's node, for a PrefixCursor). Internal nodes live in
// a slab of fixed-size chunks, so opening one allocates at most once per
// slabChunk nodes and never moves one; leaves, half of what a walk opens,
// cost a label range each.
type walk struct {
	t      *Trie
	root   int32
	slab   []*[slabChunk]iterNode // node i is slab[i/slabChunk][i%slabChunk]
	nodes  int32
	leaves []labelRef
}

const slabChunk = 32

// chunkPool recycles slab chunks between walks: a served page opens a few
// hundred nodes and is done with them inside a millisecond, and fresh
// chunks were half of everything the read path allocated. Chunks come
// back dirty (so a pooled chunk can pin a retired generation's bitvector
// until the pool drops it, a GC cycle or two later); open sets every
// field of a node it hands out.
var chunkPool = sync.Pool{New: func() any { return new([slabChunk]iterNode) }}

func (w *walk) node(i int32) *iterNode { return &w.slab[i/slabChunk][i%slabChunk] }

// release returns the slab to the pool; the walk must not be used again.
func (w *walk) release() {
	for _, c := range w.slab {
		chunkPool.Put(c)
	}
	*w = walk{}
}

// open records nd and returns its name: i+1 for the internal node i of
// the slab, opened with its bit cursor at position q of its subsequence
// (label range, directory entry and one block visit, from which the
// cursor then serves both the bits and their ranks), or -(i+1) for leaf i.
// 0 is left to mean "not opened".
func (w *walk) open(nd dfuds.BinaryNode, q int) int32 {
	t := w.t
	lo, hi := t.labelRange(nd)
	if t.tree.IsLeaf(nd.Pos) {
		w.leaves = append(w.leaves, labelRef{lo, hi - lo})
		return -int32(len(w.leaves))
	}
	if int(w.nodes) == len(w.slab)*slabChunk {
		w.slab = append(w.slab, chunkPool.Get().(*[slabChunk]iterNode))
	}
	in := w.node(w.nodes)
	w.nodes++
	in.nd, in.label, in.kids = nd, labelRef{lo, hi - lo}, [2]int32{}
	in.it.Reset(t.bits, t.segStart(nd.Internal), q)
	return w.nodes
}

// next appends to b the suffix, from the walk's root down, of the element
// at position q of the root's subsequence, advancing the cursors along
// the taken path. Consecutive positions stream; any other q re-seeks the
// cursors it finds elsewhere.
func (w *walk) next(q int, b *bitstr.Builder) {
	labels := w.t.labels.Words()
	for at := w.root; ; {
		if at < 0 {
			lf := w.leaves[-at-1]
			b.AppendRange(labels, lf.lo, lf.n)
			return
		}
		in := w.node(at - 1)
		b.AppendRange(labels, in.label.lo, in.label.n)
		if in.it.Pos() != q {
			in.it.Seek(q)
		}
		ones := in.it.Rank1()
		bit := in.it.Next()
		b.AppendBit(bit)
		if bit == 1 {
			q = ones
		} else {
			q -= ones
		}
		if in.kids[bit] == 0 {
			in.kids[bit] = w.open(w.t.tree.BinaryChild(in.nd, bit), q)
		}
		at = in.kids[bit]
	}
}

// newWalk returns a walk rooted at nd, its cursors at position q of nd's
// subsequence.
func (t *Trie) newWalk(nd dfuds.BinaryNode, q int) walk {
	w := walk{t: t}
	w.root = w.open(nd, q)
	return w
}

// Iter is a pull-style in-order enumerator over a position range of the
// trie. It is not safe for concurrent use (the underlying Trie is; each
// goroutine should take its own Iter).
type Iter struct {
	w        walk
	pos, end int
}

// Iter returns an enumerator over the elements of positions [l, r).
func (t *Trie) Iter(l, r int) *Iter {
	if l < 0 || r > t.n || l > r {
		panic(fmt.Sprintf("succinct: Iter range [%d,%d) out of range [0,%d)", l, r, t.n))
	}
	it := &Iter{pos: l, end: r}
	if l < r {
		it.w = t.newWalk(t.tree.BinaryRoot(), l)
	}
	return it
}

// Close ends the enumeration and hands the iterator's memory back for the
// next one to reuse. It is optional — an unclosed Iter is simply garbage —
// and the Iter must not be used after it.
func (it *Iter) Close() {
	it.w.release()
	it.pos = it.end
}

// Valid reports whether NextInto has elements left to return.
func (it *Iter) Valid() bool { return it.pos < it.end }

// Pos returns the position the next call to NextInto will yield.
func (it *Iter) Pos() int { return it.pos }

// NextInto appends the element at the current position to b and advances;
// a streaming consumer reuses one scratch builder (Reset + NextInto + View
// per element), so an element costs no allocation. It panics when the
// range is exhausted (guard with Valid).
func (it *Iter) NextInto(b *bitstr.Builder) {
	if it.pos >= it.end {
		panic("succinct: NextInto past the end of the iterated range")
	}
	it.w.next(it.pos, b)
	it.pos++
}

// EnumerateBits calls fn with each element of positions [l, r) in
// order, stopping early if fn returns false — the ForEach form of Iter.
// Every element is decoded into one scratch builder: the BitString fn
// receives aliases it and is valid only for the duration of the call.
func (t *Trie) EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool) {
	var buf [bitstr.KeyWords]uint64
	b := bitstr.BuilderOver(buf[:])
	it := t.Iter(l, r)
	defer it.Close()
	for it.Valid() {
		pos := it.Pos()
		b.Reset()
		it.NextInto(&b)
		if !fn(pos, b.View()) {
			return
		}
	}
}
