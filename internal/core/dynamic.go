package core

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dynbv"
)

// Dynamic is the fully-dynamic Wavelet Trie of Theorem 4.4: it supports
// Access, Rank, Select, RankPrefix, SelectPrefix, and Insert in
// O(|s| + h_s·log n) time and Delete in the same time (O(ℓ̂ + h_s·log n)
// when deleting the last occurrence of a string). Space is
// LB(S) + PT(Sset) + O(nH₀) bits.
//
// The alphabet Sset is fully dynamic: inserting a previously unseen string
// splits a Patricia trie node and initializes the new internal node's
// bitvector with Init (Figure 3); deleting the last occurrence removes a
// leaf and its parent. No a-priori knowledge of the alphabet is needed —
// the property that distinguishes the Wavelet Trie from prior dynamic
// wavelet trees [16, 12, 18].
type Dynamic struct {
	wtrie
}

// NewDynamic returns an empty fully-dynamic Wavelet Trie.
func NewDynamic() *Dynamic {
	return &Dynamic{wtrie: newWtrie()}
}

// AppendBits appends s at the end of the sequence.
func (d *Dynamic) AppendBits(s bitstr.BitString) { d.InsertBits(s, d.n) }

// InsertBits inserts s immediately before position pos (0 ≤ pos ≤ Len()).
// Previously unseen strings extend the alphabet (splitting a trie node as
// in Figure 3); the stored set must remain prefix-free.
func (d *Dynamic) InsertBits(s bitstr.BitString, pos int) {
	if pos < 0 || pos > d.n {
		panic(fmt.Sprintf("core: Insert position %d out of range [0,%d]", pos, d.n))
	}
	res := d.t.Insert(s)
	if res.Split != nil {
		// Figure 3: the new internal node's bitvector is a constant run of
		// the split-off child's branch bit, as long as that child's
		// subsequence (= the count of its branch bit in the parent, or the
		// whole sequence if the split node was the root).
		oldChildBit := byte(1) - res.Leaf.ChildBit()
		var seqLen int
		if res.Split.Parent() == nil {
			seqLen = d.n
		} else {
			parent := res.Split.Parent()
			if res.Split.ChildBit() == 1 {
				seqLen = parent.Payload.Ones()
			} else {
				seqLen = parent.Payload.Len() - parent.Payload.Ones()
			}
		}
		res.Split.Payload = dynbv.NewInit(oldChildBit, seqLen)
	}
	// Top-down bit insertion along the root-to-leaf path of s.
	nd := d.t.Root()
	off := 0
	for !nd.IsLeaf() {
		off += nd.Label().Len()
		bit := s.Bit(off)
		bv := nd.Payload.(*dynbv.Vector)
		bv.Insert(pos, bit)
		pos = bv.Rank(bit, pos)
		nd = nd.Child(bit)
		off++
	}
	d.n++
}

// DeleteAt removes the element at position pos and returns it. If it was
// the last occurrence of its string, the alphabet shrinks (the leaf and
// its parent — whose bitvector has become constant — are removed from the
// trie, Appendix B).
func (d *Dynamic) DeleteAt(pos int) bitstr.BitString {
	if pos < 0 || pos >= d.n {
		panic(fmt.Sprintf("core: Delete position %d out of range [0,%d)", pos, d.n))
	}
	b := bitstr.NewBuilder(0)
	nd := d.t.Root()
	for !nd.IsLeaf() {
		b.Append(nd.Label())
		bv := nd.Payload.(*dynbv.Vector)
		bit := bv.Access(pos)
		b.AppendBit(bit)
		next := bv.Rank(bit, pos)
		bv.Delete(pos)
		pos = next
		nd = nd.Child(bit)
	}
	b.Append(nd.Label())
	d.n--
	// Last occurrence? Then the leaf's subsequence is empty now.
	if d.n == 0 {
		d.t.Delete(nd) // root leaf (possibly after merges) — trie empties
		return b.BitString()
	}
	if parent := nd.Parent(); parent != nil {
		bv := parent.Payload.(*dynbv.Vector)
		var remaining int
		if nd.ChildBit() == 1 {
			remaining = bv.Ones()
		} else {
			remaining = bv.Len() - bv.Ones()
		}
		if remaining == 0 {
			// The parent's bitvector is constant: drop leaf and parent.
			d.t.Delete(nd)
		}
	}
	return b.BitString()
}

// SizeBits returns the measured footprint in bits: the Patricia trie
// (Lemma 4.1: O(kw) + |L|) plus every node's γ-RLE encoded bitvector with
// its balanced-tree directory (Theorem 4.9).
func (d *Dynamic) SizeBits() int {
	s := d.t.SizeBits()
	d.t.Walk(func(nd *node, _ int) {
		if !nd.IsLeaf() {
			s += nd.Payload.(*dynbv.Vector).SizeBits()
		}
	})
	return s
}

// EncodedBitvectorBits returns Σ over internal nodes of the exact Elias-γ
// RLE stream size — the payload the O(nH₀) bound of Theorem 4.4 covers.
func (d *Dynamic) EncodedBitvectorBits() int {
	s := 0
	d.t.Walk(func(nd *node, _ int) {
		if !nd.IsLeaf() {
			s += nd.Payload.(*dynbv.Vector).EncodedSizeBits()
		}
	})
	return s
}
