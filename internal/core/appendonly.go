package core

import (
	"repro/internal/appendbv"
	"repro/internal/bitstr"
)

// AppendOnly is the append-only Wavelet Trie of Theorem 4.3: it supports
// Access, Rank, Select, RankPrefix, SelectPrefix and Append, all in
// O(|s| + h_s) time, in LB(S) + PT(Sset) + o(h̃n) bits — the variant for
// "compressing and indexing a sequential log on the fly" (§1).
//
// Appending at the end only ever appends bits at the end of the node
// bitvectors, so the §4.1 append-only bitvector suffices; a node split
// initializes the new internal node's bitvector with the O(log n)-bit
// left-offset trick (§4, "Main results").
type AppendOnly struct {
	wtrie
}

// NewAppendOnly returns an empty append-only Wavelet Trie.
func NewAppendOnly() *AppendOnly {
	return &AppendOnly{wtrie: newWtrie()}
}

// AppendBits appends s at the end of the sequence in O(|s| + h_s).
// Previously unseen strings extend the alphabet; the stored set must
// remain prefix-free.
func (a *AppendOnly) AppendBits(s bitstr.BitString) {
	res := a.t.Insert(s)
	if res.Split != nil {
		oldChildBit := byte(1) - res.Leaf.ChildBit()
		var seqLen int
		if res.Split.Parent() == nil {
			seqLen = a.n
		} else {
			parent := res.Split.Parent()
			if res.Split.ChildBit() == 1 {
				seqLen = parent.Payload.Ones()
			} else {
				seqLen = parent.Payload.Len() - parent.Payload.Ones()
			}
		}
		res.Split.Payload = appendbv.NewInit(oldChildBit, seqLen)
	}
	nd := a.t.Root()
	off := 0
	for !nd.IsLeaf() {
		off += nd.Label().Len()
		bit := s.Bit(off)
		nd.Payload.(*appendbv.Vector).Append(bit)
		nd = nd.Child(bit)
		off++
	}
	a.n++
}

// Preorder is a pull-style walk of the trie's nodes in depth-first
// preorder (node, 0-child, 1-child) — the order the succinct encoding lays
// nodes out in. The trie must not be appended to while one is in use.
type Preorder struct {
	stack []*node // heap stack: deep tries must not grow the goroutine's
}

// Preorder returns a walk positioned before the root.
func (a *AppendOnly) Preorder() *Preorder {
	p := &Preorder{}
	if root := a.t.Root(); root != nil {
		p.stack = append(p.stack, root)
	}
	return p
}

// Next returns the next node's label and, for an internal node, its
// bitvector (nil for a leaf); ok is false once every node has been
// returned.
func (p *Preorder) Next() (label bitstr.BitString, bv *appendbv.Vector, ok bool) {
	if len(p.stack) == 0 {
		return bitstr.Empty, nil, false
	}
	nd := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	if nd.IsLeaf() {
		return nd.Label(), nil, true
	}
	p.stack = append(p.stack, nd.Child(1), nd.Child(0))
	return nd.Label(), nd.Payload.(*appendbv.Vector), true
}

// SizeBits returns the measured footprint: the Patricia trie (the PT term
// of Theorem 4.3) plus the compressed append-only bitvectors
// (nH₀(S) + o(h̃n)).
func (a *AppendOnly) SizeBits() int {
	s := a.t.SizeBits()
	a.t.Walk(func(nd *node, _ int) {
		if !nd.IsLeaf() {
			s += nd.Payload.(*appendbv.Vector).SizeBits()
		}
	})
	return s
}
