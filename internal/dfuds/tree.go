package dfuds

import (
	"fmt"

	"repro/internal/bitvec"
)

// Tree is a static strictly binary tree — every node has no child or two,
// the shape of a Patricia trie — as Jacobson's preorder bitmap: one bit a
// node, 1 for an internal node and 0 for a leaf, behind one leading 1. A
// subtree holds one leaf more than it holds internal nodes, so read as
// parentheses (1 opens) a node's bit together with its 0-subtree is
// balanced but for that subtree's last leaf, which closes the node — and
// the leading 1 is closed by the last leaf of all. k nodes take k + 1 bits
// plus the o(k) excess index.
//
// A node is addressed by its position in the bitmap, its preorder number
// plus one; the root is at 1.
type Tree struct {
	p *Parens
}

// NewTree wraps a bitmap: the leading 1, then the nodes in preorder.
// Navigation is only right on a bitmap that is WellFormed.
func NewTree(bitmap *bitvec.Vector) *Tree {
	if bitmap.Len() < 2 {
		panic(fmt.Sprintf("dfuds: a tree bitmap of %d bits holds no node", bitmap.Len()))
	}
	return &Tree{p: NewParens(bitmap)}
}

// WellFormed reports whether the bitmap is the preorder of one strictly
// binary tree: the leading 1 is there and its matching close is the last
// bit, which says the running excess stays positive up to the last leaf —
// the Łukasiewicz condition, met by exactly those bitmaps.
func (t *Tree) WellFormed() bool {
	if !t.p.IsOpen(0) {
		return false
	}
	c, ok := t.p.findClose(0)
	return ok && c == t.p.Len()-1
}

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int { return t.p.Len() - 1 }

// IsLeaf reports whether the node at position v has no children.
func (t *Tree) IsLeaf(v int) bool { return !t.p.IsOpen(v) }

// BinaryNode addresses a node by its position and its rank among the
// internal nodes together, which is all a walk down from the root needs:
// the 0-child comes right after its parent, the 1-child right after the
// close matching the parent's bit, and the internal nodes in between
// follow from the distance. No Rank and no Select is ever run on the
// bitmap.
type BinaryNode struct {
	Pos      int // position in the bitmap
	Internal int // internal nodes before it in preorder
}

// ID returns the node's preorder number (0-based).
func (n BinaryNode) ID() int { return n.Pos - 1 }

// BinaryRoot returns the root.
func (t *Tree) BinaryRoot() BinaryNode { return BinaryNode{Pos: 1} }

// BinaryChild returns child bit (0 or 1) of the internal node n.
func (t *Tree) BinaryChild(n BinaryNode, bit byte) BinaryNode {
	if bit == 0 {
		return BinaryNode{Pos: n.Pos + 1, Internal: n.Internal + 1}
	}
	// The 0-subtree fills [n.Pos+1, c): c-n.Pos-1 nodes, one more of them
	// leaves than internal.
	c := t.p.FindClose(n.Pos) + 1
	return BinaryNode{Pos: c, Internal: n.Internal + 1 + (c-n.Pos-2)/2}
}

// SizeBits returns the footprint of the encoding.
func (t *Tree) SizeBits() int { return t.p.SizeBits() }
