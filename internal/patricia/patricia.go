// Package patricia implements the dynamic binary Patricia trie (compacted
// binary trie) of paper §2 and Appendix B, Lemma 4.1: for k stored strings
// it occupies O(kw) + |L| bits, supports navigation in constant time per
// node, insertion of a string s in O(|s|) time, and deletion in O(ℓ̂) time
// where ℓ̂ is the length of the longest stored string.
//
// The trie stores a prefix-free set of distinct bit strings. Every node
// carries a label α (possibly empty); internal nodes have exactly two
// children, reached by the branch bit that follows α; the root-to-leaf
// concatenation label·bit·label·bit·…·label spells out a stored string.
//
// Nodes carry a caller-defined payload P — the Wavelet Trie stores the
// bitvector β of Definition 3.1 in internal-node payloads. Parent pointers
// are kept because the Wavelet Trie's Select/SelectPrefix walk bottom-up
// (Lemma 3.2); they are part of the O(kw) pointer budget of Lemma 4.1.
package patricia

import (
	"fmt"

	"repro/internal/bitstr"
)

// Node is a trie node. Leaves have no children; internal nodes have
// exactly two. The zero value is not a valid node; nodes are created by
// Trie operations only.
type Node[P any] struct {
	label   bitstr.BitString
	parent  *Node[P]
	kids    [2]*Node[P]
	Payload P
}

// Label returns the node's label α.
func (n *Node[P]) Label() bitstr.BitString { return n.label }

// Parent returns the parent node, or nil at the root.
func (n *Node[P]) Parent() *Node[P] { return n.parent }

// IsLeaf reports whether the node has no children.
func (n *Node[P]) IsLeaf() bool { return n.kids[0] == nil }

// Child returns the b-labeled child (b must be 0 or 1); nil on leaves.
func (n *Node[P]) Child(b byte) *Node[P] { return n.kids[b&1] }

// ChildBit returns which branch bit leads from the parent to this node.
// It must not be called on the root.
func (n *Node[P]) ChildBit() byte {
	if n.parent == nil {
		panic("patricia: ChildBit on root")
	}
	if n.parent.kids[0] == n {
		return 0
	}
	return 1
}

// String reconstructs the full stored string for a leaf (or the full path
// string ending at n's label for an internal node).
func (n *Node[P]) String() bitstr.BitString {
	// Collect path segments bottom-up, then assemble.
	type seg struct {
		label bitstr.BitString
		bit   byte
	}
	var segs []seg
	cur := n
	for cur.parent != nil {
		segs = append(segs, seg{cur.label, cur.ChildBit()})
		cur = cur.parent
	}
	b := bitstr.NewBuilder(0)
	b.Append(cur.label)
	for i := len(segs) - 1; i >= 0; i-- {
		b.AppendBit(segs[i].bit)
		b.Append(segs[i].label)
	}
	return b.BitString()
}

// Depth returns the number of internal nodes strictly above n plus one if
// n is internal itself — i.e. the h_s of the paper when n is the leaf of
// string s is Depth() of that leaf.
func (n *Node[P]) Depth() int {
	d := 0
	for cur := n; cur != nil; cur = cur.parent {
		if !cur.IsLeaf() {
			d++
		}
	}
	return d
}

// Trie is a dynamic Patricia trie over prefix-free bit strings.
type Trie[P any] struct {
	root *Node[P]
	size int // number of stored strings (= leaves)
}

// New returns an empty trie.
func New[P any]() *Trie[P] { return &Trie[P]{} }

// Len returns the number of stored strings.
func (t *Trie[P]) Len() int { return t.size }

// Root returns the root node, nil when the trie is empty.
func (t *Trie[P]) Root() *Node[P] { return t.root }

// Find returns the leaf storing exactly s, or nil.
func (t *Trie[P]) Find(s bitstr.BitString) *Node[P] {
	n := t.root
	pos := 0
	for n != nil {
		l := n.label.Len()
		if pos+l > s.Len() || !bitstr.EqualAt(s.Words(), pos, n.label.Words(), 0, l) {
			return nil
		}
		pos += l
		if n.IsLeaf() {
			if pos == s.Len() {
				return n
			}
			return nil
		}
		if pos >= s.Len() {
			return nil
		}
		n = n.kids[s.Bit(pos)]
		pos++
	}
	return nil
}

// FindPrefix returns the highest node whose root-to-node path covers the
// prefix p — the node n_p of Lemma 3.3 — or nil if no stored string has
// prefix p. It also reports how many bits of the node's own label are
// consumed by p (useful to callers that keep descending).
func (t *Trie[P]) FindPrefix(p bitstr.BitString) (n *Node[P], labelConsumed int) {
	n = t.root
	pos := 0
	for n != nil {
		l := n.label.Len()
		if !bitstr.EqualAt(p.Words(), pos, n.label.Words(), 0, min(l, p.Len()-pos)) {
			return nil, 0
		}
		if pos+l >= p.Len() {
			return n, p.Len() - pos
		}
		pos += l
		if n.IsLeaf() {
			return nil, 0
		}
		n = n.kids[p.Bit(pos)]
		pos++
	}
	return nil, 0
}

// InsertResult describes the structural outcome of an insertion.
type InsertResult[P any] struct {
	Leaf    *Node[P] // the leaf now storing s
	Created bool     // false if s was already present
	// Split is the new internal node created by splitting an existing
	// node, nil if the trie was empty or the string already existed. Its
	// child opposite the new leaf is the split-off old node.
	Split *Node[P]
}

// Insert adds s to the trie. s must keep the stored set prefix-free; a
// violation (s is a proper prefix of a stored string or vice versa) panics,
// as it indicates the caller broke the binarization contract.
func (t *Trie[P]) Insert(s bitstr.BitString) InsertResult[P] {
	if t.root == nil {
		leaf := &Node[P]{label: s}
		t.root = leaf
		t.size++
		return InsertResult[P]{Leaf: leaf, Created: true}
	}
	n := t.root
	pos := 0
	for {
		l := n.label.Len()
		rest := s.Len() - pos
		lcp := bitstr.LCPAt(s.Words(), pos, n.label.Words(), 0, min(l, rest))
		if lcp < l {
			// Mismatch inside n's label (or s exhausted within it).
			if lcp == rest {
				panic(fmt.Sprintf("patricia: Insert: %q is a proper prefix of a stored string", s.String()))
			}
			return t.split(n, pos, lcp, s)
		}
		pos += l
		if n.IsLeaf() {
			if pos == s.Len() {
				return InsertResult[P]{Leaf: n} // already present
			}
			panic(fmt.Sprintf("patricia: Insert: stored string is a proper prefix of %q", s.String()))
		}
		if pos >= s.Len() {
			panic(fmt.Sprintf("patricia: Insert: %q is a proper prefix of a stored string", s.String()))
		}
		n = n.kids[s.Bit(pos)]
		pos++
	}
}

// split replaces n with a new internal node whose label is the first cut
// bits of n's label; n keeps the remainder (minus the branch bit) and a
// new leaf stores the rest of s.
func (t *Trie[P]) split(n *Node[P], pos, cut int, s bitstr.BitString) InsertResult[P] {
	oldLabel := n.label
	parent := n.parent
	newInternal := &Node[P]{label: oldLabel.Prefix(cut), parent: parent}
	sBit := s.Bit(pos + cut)
	leaf := &Node[P]{label: s.Suffix(pos + cut + 1), parent: newInternal}
	n.label = oldLabel.Suffix(cut + 1)
	n.parent = newInternal
	newInternal.kids[sBit] = leaf
	newInternal.kids[1-sBit] = n
	if parent == nil {
		t.root = newInternal
	} else {
		if parent.kids[0] == n {
			parent.kids[0] = newInternal
		} else {
			parent.kids[1] = newInternal
		}
	}
	t.size++
	return InsertResult[P]{Leaf: leaf, Created: true, Split: newInternal}
}

// DeleteResult describes the structural outcome of a leaf deletion.
type DeleteResult[P any] struct {
	// Removed is the internal node that disappeared together with the
	// leaf (the leaf's parent), nil when the deleted leaf was the root.
	Removed *Node[P]
	// Merged is the sibling that absorbed the parent's label and branch
	// bit, nil when the deleted leaf was the root.
	Merged *Node[P]
}

// Delete removes a leaf from the trie, merging its parent with the
// sibling as in Appendix B. The leaf must belong to this trie.
func (t *Trie[P]) Delete(leaf *Node[P]) DeleteResult[P] {
	if !leaf.IsLeaf() {
		panic("patricia: Delete: node is not a leaf")
	}
	t.size--
	parent := leaf.parent
	if parent == nil {
		t.root = nil
		return DeleteResult[P]{}
	}
	sib := parent.kids[1-leaf.ChildBit()]
	// Sibling label becomes parentLabel · sibBranchBit · sibLabel.
	b := bitstr.NewBuilder(parent.label.Len() + 1 + sib.label.Len())
	b.Append(parent.label)
	b.AppendBit(sib.ChildBit())
	b.Append(sib.label)
	sib.label = b.BitString()
	grand := parent.parent
	sib.parent = grand
	if grand == nil {
		t.root = sib
	} else if grand.kids[0] == parent {
		grand.kids[0] = sib
	} else {
		grand.kids[1] = sib
	}
	return DeleteResult[P]{Removed: parent, Merged: sib}
}

// Walk visits every node in depth-first order (node, then 0-child, then
// 1-child), calling visit with the node and its depth in nodes. The
// traversal stack lives on the heap so arbitrarily deep tries (e.g.
// freshly decoded, not yet validated) cannot exhaust the goroutine
// stack.
func (t *Trie[P]) Walk(visit func(n *Node[P], depth int)) {
	if t.root == nil {
		return
	}
	type entry struct {
		n *Node[P]
		d int
	}
	stack := []entry{{t.root, 0}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(e.n, e.d)
		if !e.n.IsLeaf() {
			// Push the 1-child first so the 0-child pops first.
			stack = append(stack, entry{e.n.kids[1], e.d + 1}, entry{e.n.kids[0], e.d + 1})
		}
	}
}

// Strings returns all stored strings in lexicographic order.
func (t *Trie[P]) Strings() []bitstr.BitString {
	if t.root == nil {
		return nil
	}
	type entry struct {
		n      *Node[P]
		prefix bitstr.BitString
	}
	var out []bitstr.BitString
	stack := []entry{{t.root, bitstr.Empty}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		path := bitstr.Concat(e.prefix, e.n.label)
		if e.n.IsLeaf() {
			out = append(out, path)
			continue
		}
		stack = append(stack,
			entry{e.n.kids[1], path.AppendBit(1)},
			entry{e.n.kids[0], path.AppendBit(0)})
	}
	return out
}

// LabelBits returns |L|, the total number of label bits across all nodes.
func (t *Trie[P]) LabelBits() int {
	bits := 0
	t.Walk(func(n *Node[P], _ int) { bits += n.label.Len() })
	return bits
}

// NumNodes returns the total number of nodes (2k-1 for k ≥ 1 strings).
func (t *Trie[P]) NumNodes() int {
	c := 0
	t.Walk(func(*Node[P], int) { c++ })
	return c
}

// SizeBits returns the Lemma 4.1 space bound O(kw) + |L| as measured on
// this representation: per node a label pointer+length, two child
// pointers, a parent pointer and the payload word, plus the label bits.
func (t *Trie[P]) SizeBits() int {
	const wordsPerNode = 6
	return t.NumNodes()*wordsPerNode*64 + t.LabelBits()
}
