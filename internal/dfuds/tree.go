package dfuds

import (
	"fmt"

	"repro/internal/bitvec"
)

// Tree is a static ordinal tree in DFUDS encoding: the degree of every
// node in depth-first preorder, written in unary as deg opens followed by
// one close, with an extra leading open for alignment. k nodes take
// 2k + 1 parens plus the o(k) excess index.
//
// Nodes are addressed by the start position of their description; node
// preorder numbers (0-based) convert both ways via Preorder/NodePos.
type Tree struct {
	p *Parens
	k int // number of nodes
}

// FromDegrees builds the tree from the preorder degree sequence. An empty
// sequence yields an empty tree.
func FromDegrees(degs []int) *Tree {
	b := bitvec.NewBuilder(2*len(degs) + 1)
	b.AppendBit(1) // leading super-root open
	for _, d := range degs {
		if d < 0 {
			panic("dfuds: negative degree")
		}
		b.AppendRun(1, d)
		b.AppendBit(0)
	}
	return &Tree{p: NewParens(b.Build()), k: len(degs)}
}

// NumNodes returns the number of nodes.
func (t *Tree) NumNodes() int { return t.k }

// Len returns the length of the encoding in parentheses; node positions
// lie in [1, Len()).
func (t *Tree) Len() int { return t.p.Len() }

// Root returns the root's position. The tree must be non-empty.
func (t *Tree) Root() int {
	if t.k == 0 {
		panic("dfuds: Root of empty tree")
	}
	return 1
}

// Degree returns the number of children of the node at position v.
func (t *Tree) Degree(v int) int {
	// The node description is deg opens then a close: the first close at
	// or after v delimits it.
	return t.p.SelectClose(t.p.RankClose(v)) - v
}

// IsLeaf reports whether the node at v has no children.
func (t *Tree) IsLeaf(v int) bool { return !t.p.IsOpen(v) }

// Child returns the position of the i-th (0-based) child of v.
func (t *Tree) Child(v, i int) int {
	deg := t.Degree(v)
	if i < 0 || i >= deg {
		panic(fmt.Sprintf("dfuds: Child(%d, %d): node has degree %d", v, i, deg))
	}
	return t.p.FindClose(v+deg-1-i) + 1
}

// Parent returns the position of v's parent. v must not be the root.
func (t *Tree) Parent(v int) int {
	if v == t.Root() {
		panic("dfuds: Parent of root")
	}
	j := t.p.FindOpen(v - 1)
	// The parent's description starts right after the close preceding j
	// (or at the root position when there is none).
	c := t.p.RankClose(j)
	if c == 0 {
		return t.Root()
	}
	return t.p.SelectClose(c-1) + 1
}

// ChildIndex returns which child of its parent v is (0-based).
func (t *Tree) ChildIndex(v int) int {
	parent := t.Parent(v)
	j := t.p.FindOpen(v - 1)
	return parent + t.Degree(parent) - 1 - j
}

// Preorder returns the preorder number (0-based) of the node at v: the
// number of node descriptions that end before v.
func (t *Tree) Preorder(v int) int { return t.p.RankClose(v) }

// NodePos returns the position of the node with preorder number i.
func (t *Tree) NodePos(i int) int {
	if i < 0 || i >= t.k {
		panic(fmt.Sprintf("dfuds: NodePos(%d) out of range [0,%d)", i, t.k))
	}
	if i == 0 {
		return t.Root()
	}
	return t.p.SelectClose(i-1) + 1
}

// BinaryNode addresses a node of a strictly binary tree — every node has
// degree 0 or 2, the shape of a Patricia trie — by its position and its
// preorder number together. In such a tree an internal node is written
// "110" and a leaf "0", so a subtree of k nodes spans exactly 2k-1
// positions and navigation needs no Rank, no Select and no degree
// lookup: the 0-child starts right after the parent's three parens, and
// the 1-child right after the close matching the parent's first open.
//
// The shortcuts are only correct on a strictly binary tree; callers
// establish that with the general Degree/Child/Parent walk (or trust a
// checksum over an encoding that passed it) before using them.
type BinaryNode struct {
	Pos int // start of the node description
	ID  int // preorder number
}

// BinaryRoot returns the root of a non-empty strictly binary tree.
func (t *Tree) BinaryRoot() BinaryNode { return BinaryNode{Pos: t.Root()} }

// BinaryChild returns child bit (0 or 1) of the internal node n.
func (t *Tree) BinaryChild(n BinaryNode, bit byte) BinaryNode {
	if bit == 0 {
		return BinaryNode{Pos: n.Pos + 3, ID: n.ID + 1}
	}
	// The 0-subtree fills [n.Pos+3, c): (c-n.Pos-2)/2 nodes.
	c := t.p.FindClose(n.Pos) + 1
	return BinaryNode{Pos: c, ID: n.ID + 1 + (c-n.Pos-2)/2}
}

// InternalIndex returns how many internal nodes precede n in preorder —
// its rank among the internal nodes. The ID nodes before n fill the
// positions [1, Pos): three per internal node, one per leaf.
func (n BinaryNode) InternalIndex() int { return (n.Pos - 1 - n.ID) / 2 }

// SizeBits returns the footprint of the encoding.
func (t *Tree) SizeBits() int { return t.p.SizeBits() }
