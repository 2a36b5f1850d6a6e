// Package succinct implements the "Static succinct representation" of
// paper §3 (Theorem 3.7): the static Wavelet Trie frozen into flat
// succinct components —
//
//   - the trie structure as the preorder internal/leaf bitmap of its k
//     nodes (k + o(k) bits: a Patricia trie is strictly binary, so one bit
//     a node says what DFUDS takes two for — dfuds.Tree);
//   - the node labels α concatenated in depth-first order into the
//     bitvector L of Theorem 3.6, delimited by an Elias-Fano partial-sum
//     directory;
//   - all node bitvectors β concatenated into a single RRR dictionary,
//     delimited by a second Elias-Fano directory of segment starts. The
//     dictionary's rank samples count from the start of the segment they
//     fall in (rrr.FromSegments), so a node's ranks and selects need its
//     start and nothing else: no cumulative-ones directory is kept.
//
// The total is LT(Sset) + nH₀(S) + o(h̃n) bits up to the practical-RRR
// redundancy, with no per-node pointer words at all — unlike the
// pointer-based core.Static it is built from (and differentially tested
// against).
//
// Every keyed query (Rank, RankPrefix, Select, SelectPrefix, Contains) is
// one call of descend, which per trie level fetches the node's label
// range (one Elias-Fano pair), compares the key against L in place, and
// — only when a position is being carried down — reads the node's segment
// start (a second Elias-Fano lookup) and visits one RRR block. Navigation
// is position arithmetic on the bitmap (dfuds.BinaryNode), so a level costs
// no Rank or Select on it at all.
package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/dfuds"
	"repro/internal/eliasfano"
	"repro/internal/rrr"
)

// Trie is a frozen static Wavelet Trie. All query operations mirror
// core.Static at the same asymptotic cost; mutation is impossible.
type Trie struct {
	n    int
	tree *dfuds.Tree

	labels    bitstr.BitString      // L: concatenated labels, DFS order
	labelDir  *eliasfano.PartialSum // delimits labels by preorder id
	bits      *rrr.Vector           // all β concatenated, internal DFS order, ranked per segment
	bvOffsets *eliasfano.Monotone   // start of each internal node's segment, and the total
}

// Unwrap returns the Trie inside a *wavelettrie.Frozen. Package
// wavelettrie — the only one that can see inside a Frozen — installs it
// at init, so that repro/store can probe many generations with one
// pre-encoded key without the public API growing a method for it.
var Unwrap func(frozen any) *Trie

// assembler lays a trie out as the §3 components from its nodes handed
// over in preorder (node, 0-child, 1-child): one shape bit and one label
// per node, and per internal node where its β segment starts in the
// concatenation. Freeze, Builder.Build and Merge differ only in where the
// nodes and the β bits come from.
type assembler struct {
	shape     *bitvec.Builder // the leading 1, then 1 per internal node and 0 per leaf
	labelLens []int
	labels    *bitstr.Builder
	bvStarts  []uint64
	bits      *bitstr.Builder // every β so far, concatenated
}

// newAssembler returns an empty assembler with room for a trie of so many
// nodes, label bits and β bits; a trie that outgrows a hint grows past it.
func newAssembler(nodes, labelBits, bits int) *assembler {
	a := &assembler{
		shape:     bitvec.NewBuilder(nodes + 1),
		labelLens: make([]int, 0, nodes),
		labels:    bitstr.NewBuilder(labelBits),
		bvStarts:  make([]uint64, 0, nodes/2+1), // the internal nodes, and finish's sentinel
		bits:      bitstr.NewBuilder(bits),
	}
	a.shape.AppendBit(1)
	return a
}

// leaf emits a leaf labeled with the n bits at bit offset off of words.
func (a *assembler) leaf(words []uint64, off, n int) {
	a.shape.AppendBit(0)
	a.labelLens = append(a.labelLens, n)
	a.labels.AppendRange(words, off, n)
}

// internal emits an internal node labeled like leaf; the caller then
// appends the node's β to a.bits.
func (a *assembler) internal(words []uint64, off, n int) {
	a.shape.AppendBit(1)
	a.labelLens = append(a.labelLens, n)
	a.labels.AppendRange(words, off, n)
	a.bvStarts = append(a.bvStarts, uint64(a.bits.Len()))
}

// finish builds the trie of n elements over the emitted nodes.
func (a *assembler) finish(n int) *Trie {
	t := &Trie{n: n}
	if len(a.labelLens) == 0 {
		return t
	}
	t.tree = dfuds.NewTree(a.shape.Build())
	t.labels = a.labels.BitString()
	t.labelDir = eliasfano.NewPartialSum(a.labelLens)
	// A sentinel entry makes the last segment's end addressable.
	total := uint64(a.bits.Len())
	t.bvOffsets = eliasfano.FromSorted(append(a.bvStarts, total), total+1)
	cat := a.bits.View()
	t.bits = rrr.FromSegments(cat.Words(), cat.Len(), t.bvOffsets)
	return t
}

// Freeze converts a pointer-based static Wavelet Trie into the succinct
// representation.
func Freeze(st *core.Static) *Trie {
	a := newAssembler(0, 0, st.TotalBitvectorBits())
	st.WalkPreorder(func(label bitstr.BitString, isLeaf bool, bv *rrr.Vector) {
		if isLeaf {
			a.leaf(label.Words(), 0, label.Len())
			return
		}
		a.internal(label.Words(), 0, label.Len())
		rd := bv.Reader()
		rd.AppendTo(a.bits, bv.Len())
	})
	return a.finish(st.Len())
}

// Len returns the number of elements.
func (t *Trie) Len() int { return t.n }

// AlphabetSize returns |Sset| (the number of leaves).
func (t *Trie) AlphabetSize() int {
	if t.tree == nil {
		return 0
	}
	return (t.tree.NumNodes() + 1) / 2
}

// Height returns the maximum number of internal nodes on any
// root-to-leaf path, matching core's definition. The traversal keeps
// its stack on the heap (deep tries must not exhaust the goroutine
// stack).
func (t *Trie) Height() int {
	if t.tree == nil {
		return 0
	}
	type entry struct {
		nd    dfuds.BinaryNode
		depth int
	}
	stack := []entry{{t.tree.BinaryRoot(), 0}}
	max := 0
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.tree.IsLeaf(e.nd.Pos) {
			if e.depth > max {
				max = e.depth
			}
			continue
		}
		stack = append(stack,
			entry{t.tree.BinaryChild(e.nd, 0), e.depth + 1},
			entry{t.tree.BinaryChild(e.nd, 1), e.depth + 1})
	}
	return max
}

// StoredBits returns the distinct stored bit strings in lexicographic
// order; loaders use it to validate the binarization contract.
func (t *Trie) StoredBits() []bitstr.BitString {
	if t.tree == nil {
		return nil
	}
	type entry struct {
		nd     dfuds.BinaryNode
		prefix bitstr.BitString
	}
	var out []bitstr.BitString
	stack := []entry{{t.tree.BinaryRoot(), bitstr.Empty}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := bitstr.NewBuilder(e.prefix.Len() + 64)
		b.Append(e.prefix)
		t.appendLabel(b, e.nd)
		if t.tree.IsLeaf(e.nd.Pos) {
			out = append(out, b.BitString())
			continue
		}
		// Push the 1-child first so the 0-child pops first (lexicographic
		// output order).
		path := b.View()
		stack = append(stack,
			entry{t.tree.BinaryChild(e.nd, 1), path.AppendBit(1)},
			entry{t.tree.BinaryChild(e.nd, 0), path.AppendBit(0)})
	}
	return out
}

// labelRange returns the bit range [lo, hi) of nd's label inside L.
func (t *Trie) labelRange(nd dfuds.BinaryNode) (lo, hi int) {
	a, b := t.labelDir.Range(nd.ID())
	return int(a), int(b)
}

// appendLabel appends nd's label to b, straight from L.
func (t *Trie) appendLabel(b *bitstr.Builder, nd dfuds.BinaryNode) {
	lo, hi := t.labelRange(nd)
	b.AppendRange(t.labels.Words(), lo, hi-lo)
}

// segStart returns where the segment of the ii-th internal node starts in
// the concatenated bitvector.
func (t *Trie) segStart(ii int) int { return int(t.bvOffsets.Get(ii)) }

// seg returns the segment [start, end) of the ii-th internal node.
func (t *Trie) seg(ii int) (start, end int) {
	a, b := t.bvOffsets.Pair(ii)
	return int(a), int(b)
}

// AccessBits returns the element at position pos as a bit string.
func (t *Trie) AccessBits(pos int) bitstr.BitString {
	b := bitstr.NewBuilder(0)
	t.AccessInto(b, pos)
	return b.BitString()
}

// AccessInto appends the element at position pos to b: per level, the
// label range copied out of L and one RRR block visit that yields both
// the branch bit and the position in the child.
func (t *Trie) AccessInto(b *bitstr.Builder, pos int) {
	if pos < 0 || pos >= t.n {
		panic(fmt.Sprintf("succinct: Access(%d) out of range [0,%d)", pos, t.n))
	}
	for nd := t.tree.BinaryRoot(); ; {
		t.appendLabel(b, nd)
		if t.tree.IsLeaf(nd.Pos) {
			return
		}
		bit, ones := t.bits.AccessRankIn(t.segStart(nd.Internal), pos)
		if bit == 1 {
			pos = ones
		} else {
			pos -= ones
		}
		b.AppendBit(bit)
		nd = t.tree.BinaryChild(nd, bit)
	}
}

// EdgeInto appends to b the smallest stored string in lexicographic order
// (bit 0) or the largest (bit 1): the labels along the root-to-leaf path
// that takes the bit-child at every branch — O(height), no β read. The
// trie must not be empty.
func (t *Trie) EdgeInto(b *bitstr.Builder, bit byte) {
	for nd := t.tree.BinaryRoot(); ; nd = t.tree.BinaryChild(nd, bit) {
		t.appendLabel(b, nd)
		if t.tree.IsLeaf(nd.Pos) {
			return
		}
		b.AppendBit(bit)
	}
}

// step is one branch of a root-to-node walk: the internal node it left,
// by internal index, and the bit it followed. ii < 0 marks "no branch"
// (the walk ended at the root).
type step struct {
	ii  int
	bit byte
}

// descend is the one root-to-node walk behind every keyed query. It
// matches key against the labels in place: with exact, key must end
// exactly at a leaf; otherwise it is a prefix, and the walk stops at the
// highest node whose root path covers it.
//
// pos >= 0 is a position in the root's sequence, carried down: at every
// branch it becomes the number of occurrences of the followed bit before
// it in the node's segment (one RRR block visit), so that on arrival it is
// the query's rank. The walk stops early, successfully, when the carried
// position reaches 0. pos < 0 carries nothing, and the walk reads labels
// only.
//
// It returns the node reached, the branch that led to it (up), the
// carried position, and — when path is non-nil — path extended by every
// branch taken, for Select to climb back.
func (t *Trie) descend(key bitstr.BitString, exact bool, pos int, path []step) (nd dfuds.BinaryNode, up step, at int, taken []step, ok bool) {
	if t.tree == nil {
		return nd, up, 0, path, false
	}
	kw, kn := key.Words(), key.Len()
	lw := t.labels.Words()
	nd, up = t.tree.BinaryRoot(), step{ii: -1}
	for off := 0; ; off++ {
		lo, hi := t.labelRange(nd)
		l := hi - lo
		cmp := l
		if rest := kn - off; rest < l {
			if exact {
				return nd, up, 0, path, false
			}
			cmp = rest
		}
		if !bitstr.EqualAt(kw, off, lw, lo, cmp) {
			return nd, up, 0, path, false
		}
		off += l
		if !exact && off >= kn {
			return nd, up, pos, path, true
		}
		if t.tree.IsLeaf(nd.Pos) {
			return nd, up, pos, path, exact && off == kn
		}
		if off >= kn {
			return nd, up, 0, path, false // the key ends at an internal node
		}
		up = step{ii: nd.Internal, bit: key.Bit(off)}
		if path != nil {
			path = append(path, up)
		}
		if pos >= 0 {
			ones := t.bits.RankIn(t.segStart(up.ii), pos)
			if up.bit == 1 {
				pos = ones
			} else {
				pos -= ones
			}
			if pos == 0 {
				return nd, up, 0, path, true
			}
		}
		nd = t.tree.BinaryChild(nd, up.bit)
	}
}

// count returns the length of the subsequence of nd, the node descend
// reached through up: its own segment's length when internal, else the
// occurrences of the followed bit in its parent's segment — directory
// arithmetic unless nd and its sibling are both leaves.
func (t *Trie) count(nd dfuds.BinaryNode, up step) int {
	if !t.tree.IsLeaf(nd.Pos) {
		start, end := t.seg(nd.Internal)
		return end - start
	}
	if up.ii < 0 {
		return t.n
	}
	start, end := t.seg(up.ii)
	// The leaf's sibling holds the rest of the parent's subsequence. An
	// internal sibling is the next internal node in preorder after the
	// parent (the leaf counts for none), so its segment's length says how
	// much that is and no bit is read. The 0-child's subtree fills the
	// bitmap between the parent and the 1-child; the 1-child follows a
	// leaf 0-child directly.
	sibling := nd.Internal > up.ii+1
	if up.bit == 0 {
		sibling = !t.tree.IsLeaf(nd.Pos + 1)
	}
	if sibling {
		from, to := t.seg(up.ii + 1)
		return end - start - (to - from)
	}
	ones := t.bits.RankIn(start, end-start)
	if up.bit == 1 {
		return ones
	}
	return end - start - ones
}

// rank is RankBits and RankPrefixBits: position 0 needs no walk, and the
// full count (pos == n) is a label-only walk plus count's arithmetic.
func (t *Trie) rank(key bitstr.BitString, exact bool, pos int) int {
	if pos < 0 || pos > t.n {
		panic(fmt.Sprintf("succinct: Rank position %d out of range [0,%d]", pos, t.n))
	}
	if pos == 0 {
		return 0
	}
	if pos == t.n {
		nd, up, _, _, ok := t.descend(key, exact, -1, nil)
		if !ok {
			return 0
		}
		return t.count(nd, up)
	}
	_, _, at, _, ok := t.descend(key, exact, pos, nil)
	if !ok {
		return 0
	}
	return at
}

// sel is SelectBits and SelectPrefixBits: a label-only walk that records
// its branches, then one RRR select per branch back up. Whether the node
// holds idx+1 elements at all is its segment's length to say for an
// internal node; for a leaf it is the first select's finding, in the
// parent's segment.
func (t *Trie) sel(key bitstr.BitString, exact bool, idx int) (int, bool) {
	var buf [48]step // deeper tries spill to the heap
	nd, _, _, path, ok := t.descend(key, exact, -1, buf[:0])
	if !ok || idx < 0 || idx >= t.n {
		return 0, false
	}
	if !t.tree.IsLeaf(nd.Pos) {
		if start, end := t.seg(nd.Internal); idx >= end-start {
			return 0, false
		}
	}
	pos := idx
	for i := len(path) - 1; i >= 0; i-- {
		// The answer lies inside the node's own segment, which confines
		// the RRR superblock search — to nothing, for most nodes.
		start, end := t.seg(path[i].ii)
		if pos, ok = t.bits.SelectIn(path[i].bit, pos, start, end); !ok {
			return 0, false
		}
	}
	return pos, true
}

// RankBits counts occurrences of s in positions [0, pos).
func (t *Trie) RankBits(s bitstr.BitString, pos int) int { return t.rank(s, true, pos) }

// RankPrefixBits counts elements in [0, pos) having bit prefix p.
func (t *Trie) RankPrefixBits(p bitstr.BitString, pos int) int { return t.rank(p, false, pos) }

// SelectBits returns the position of the idx-th occurrence of s.
func (t *Trie) SelectBits(s bitstr.BitString, idx int) (int, bool) { return t.sel(s, true, idx) }

// SelectPrefixBits returns the position of the idx-th element with bit
// prefix p.
func (t *Trie) SelectPrefixBits(p bitstr.BitString, idx int) (int, bool) {
	return t.sel(p, false, idx)
}

// ContainsBits reports whether s occurs at all. Every leaf of a frozen
// trie has at least one occurrence, so this is a label-only walk: no
// bitvector is touched.
func (t *Trie) ContainsBits(s bitstr.BitString) bool {
	_, _, _, _, ok := t.descend(s, true, -1, nil)
	return ok
}

// SizeBits returns the total footprint of the succinct encoding — every
// structure held in memory, each with its derived directories (rank
// samples, select hints, excess index); ComponentBits itemizes it.
func (t *Trie) SizeBits() int {
	if t.tree == nil {
		return 64
	}
	return t.tree.SizeBits() +
		t.labels.Len() + t.labelDir.SizeBits() +
		t.bits.SizeBits() + t.bvOffsets.SizeBits()
}

// ComponentBits itemizes the encoding for the space experiments: the
// shape bitmap (under the key it had as a DFUDS string), labels +
// directory, and the concatenated RRR + its segment directory (with its
// select hints).
func (t *Trie) ComponentBits() map[string]int {
	if t.tree == nil {
		return map[string]int{}
	}
	return map[string]int{
		"dfuds":      t.tree.SizeBits(),
		"labels":     t.labels.Len(),
		"labelDir":   t.labelDir.SizeBits(),
		"bitvectors": t.bits.SizeBits(),
		"bvDirs":     t.bvOffsets.SizeBits(),
	}
}
