// Package core implements the Wavelet Trie of Grossi & Ottaviano (PODS
// 2012) — a compressed indexed sequence of binary strings — in its three
// variants:
//
//   - Static (§3, Theorem 3.7): immutable, RRR-compressed bitvectors;
//   - AppendOnly (§4, Theorem 4.3): Append at the end in O(|s|+h_s) using
//     the §4.1 append-only bitvectors;
//   - Dynamic (§4, Theorem 4.4): Insert and Delete at arbitrary positions
//     in O(|s|+h_s·log n) using the §4.2 RLE+γ dynamic bitvectors.
//
// A Wavelet Trie is the Patricia trie of the distinct strings Sset, where
// every internal node additionally stores a bitvector β with one bit per
// element of the node's subsequence telling which child subtree the
// element continues in (Definition 3.1). All variants share the same trie
// and the same query algorithms (this file); they differ only in the
// bitvector engine and in which mutations they admit.
//
// Strings are arbitrary bit strings from a prefix-free set; byte strings
// enter through the bitstr.Encode binarization. The element type
// throughout this package is bitstr.BitString.
package core

import (
	"fmt"

	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/dynbv"
	"repro/internal/patricia"
	"repro/internal/rrr"
)

// vector is the bitvector interface internal trie nodes require for
// queries. The three engines (*rrr.Vector, *appendbv.Vector,
// *dynbv.Vector) all satisfy it.
type vector interface {
	Len() int
	Ones() int
	Access(pos int) byte
	Rank(b byte, pos int) int
	Select(b byte, idx int) int
}

// bitIter is a sequential cursor over a vector; every engine's Iter
// satisfies it. §5's sequential algorithms rely on its O(1) Next.
type bitIter interface {
	Valid() bool
	Next() byte
}

// iterAt opens a cursor on any supported vector implementation.
func iterAt(v vector, pos int) bitIter {
	switch x := v.(type) {
	case *rrr.Vector:
		return x.Iter(pos)
	case *appendbv.Vector:
		return x.Iter(pos)
	case *dynbv.Vector:
		return x.Iter(pos)
	case *bitvec.Vector:
		return &plainIter{v: x, pos: pos}
	default:
		panic(fmt.Sprintf("core: no iterator for vector type %T", v))
	}
}

// plainIter adapts the uncompressed bitvector (whose Access is already
// O(1)) to the cursor interface for the StaticPlain ablation.
type plainIter struct {
	v   *bitvec.Vector
	pos int
}

func (it *plainIter) Valid() bool { return it.pos < it.v.Len() }

func (it *plainIter) Next() byte {
	b := it.v.Access(it.pos)
	it.pos++
	return b
}

// node abbreviates the trie node type: payload is the node's bitvector β
// (nil on leaves).
type node = patricia.Node[vector]

// wtrie is the variant-independent part of a Wavelet Trie: the Patricia
// trie with bitvector payloads, plus the element count.
type wtrie struct {
	t *patricia.Trie[vector]
	n int
}

func newWtrie() wtrie { return wtrie{t: patricia.New[vector]()} }

// Len returns the number of elements in the sequence.
func (w *wtrie) Len() int { return w.n }

// AlphabetSize returns |Sset|, the number of distinct strings.
func (w *wtrie) AlphabetSize() int { return w.t.Len() }

// TotalBitvectorBits returns Σ|β| over all internal nodes, which equals
// h̃·n (Definition 3.4): each element contributes one bit to every
// internal node on its path.
func (w *wtrie) TotalBitvectorBits() int {
	total := 0
	w.t.Walk(func(nd *node, _ int) {
		if !nd.IsLeaf() {
			total += nd.Payload.Len()
		}
	})
	return total
}

// AvgHeight returns h̃ = TotalBitvectorBits / n (Definition 3.4); 0 for an
// empty sequence.
func (w *wtrie) AvgHeight() float64 {
	if w.n == 0 {
		return 0
	}
	return float64(w.TotalBitvectorBits()) / float64(w.n)
}

// Height returns the maximum number of internal nodes on any root-to-leaf
// path.
func (w *wtrie) Height() int {
	max := 0
	w.t.Walk(func(nd *node, _ int) {
		if nd.IsLeaf() {
			if d := nd.Depth(); d > max {
				max = d
			}
		}
	})
	return max
}

// LabelBits returns |L|, the total label bits of the underlying trie.
func (w *wtrie) LabelBits() int { return w.t.LabelBits() }

// AccessBits returns the element at position pos as a bit string.
func (w *wtrie) AccessBits(pos int) bitstr.BitString {
	if pos < 0 || pos >= w.n {
		panic(fmt.Sprintf("core: Access(%d) out of range [0,%d)", pos, w.n))
	}
	b := bitstr.NewBuilder(0)
	nd := w.t.Root()
	for {
		b.Append(nd.Label())
		if nd.IsLeaf() {
			return b.BitString()
		}
		bit := nd.Payload.Access(pos)
		b.AppendBit(bit)
		pos = nd.Payload.Rank(bit, pos)
		nd = nd.Child(bit)
	}
}

// RankBits counts occurrences of the bit string s in positions [0, pos).
// pos ranges over [0, Len()]. Strings not in the sequence have rank 0.
func (w *wtrie) RankBits(s bitstr.BitString, pos int) int {
	if pos < 0 || pos > w.n {
		panic(fmt.Sprintf("core: Rank position %d out of range [0,%d]", pos, w.n))
	}
	nd := w.t.Root()
	off := 0
	for nd != nil {
		l := nd.Label().Len()
		if off+l > s.Len() || !bitstr.EqualAt(s.Words(), off, nd.Label().Words(), 0, l) {
			return 0
		}
		off += l
		if nd.IsLeaf() {
			if off == s.Len() {
				return pos
			}
			return 0
		}
		if off >= s.Len() {
			return 0
		}
		bit := s.Bit(off)
		pos = nd.Payload.Rank(bit, pos)
		nd = nd.Child(bit)
		off++
	}
	return 0
}

// CountBits returns the total number of occurrences of s.
func (w *wtrie) CountBits(s bitstr.BitString) int { return w.RankBits(s, w.n) }

// RankPrefixBits counts elements in [0, pos) having p as a bit prefix.
func (w *wtrie) RankPrefixBits(p bitstr.BitString, pos int) int {
	if pos < 0 || pos > w.n {
		panic(fmt.Sprintf("core: RankPrefix position %d out of range [0,%d]", pos, w.n))
	}
	nd := w.t.Root()
	off := 0
	for nd != nil {
		l := nd.Label().Len()
		if !bitstr.EqualAt(p.Words(), off, nd.Label().Words(), 0, min(l, p.Len()-off)) {
			return 0
		}
		off += l
		if off >= p.Len() {
			return pos // p is covered by the path into this node
		}
		if nd.IsLeaf() {
			return 0
		}
		bit := p.Bit(off)
		pos = nd.Payload.Rank(bit, pos)
		nd = nd.Child(bit)
		off++
	}
	return 0
}

// CountPrefixBits returns the number of elements with bit prefix p.
func (w *wtrie) CountPrefixBits(p bitstr.BitString) int { return w.RankPrefixBits(p, w.n) }

// SelectBits returns the position of the idx-th (0-based) occurrence of s,
// or ok=false if s occurs fewer than idx+1 times.
func (w *wtrie) SelectBits(s bitstr.BitString, idx int) (pos int, ok bool) {
	if idx < 0 {
		return 0, false
	}
	leaf := w.t.Find(s)
	if leaf == nil || idx >= w.nodeSeqLen(leaf) {
		return 0, false
	}
	return w.climb(leaf, idx), true
}

// SelectPrefixBits returns the position of the idx-th (0-based) element
// having bit prefix p, or ok=false if there are not that many.
func (w *wtrie) SelectPrefixBits(p bitstr.BitString, idx int) (pos int, ok bool) {
	if idx < 0 {
		return 0, false
	}
	np, _ := w.t.FindPrefix(p)
	if np == nil || idx >= w.nodeSeqLen(np) {
		return 0, false
	}
	return w.climb(np, idx), true
}

// climb maps a position in nd's subsequence to a position in the full
// sequence by walking Select upward (Lemma 3.2 / 3.3 bottom-up phase).
func (w *wtrie) climb(nd *node, pos int) int {
	for nd.Parent() != nil {
		parent := nd.Parent()
		pos = parent.Payload.Select(nd.ChildBit(), pos)
		nd = parent
	}
	return pos
}

// nodeSeqLen returns the length of the subsequence represented by nd.
func (w *wtrie) nodeSeqLen(nd *node) int {
	if !nd.IsLeaf() {
		return nd.Payload.Len()
	}
	return w.parentSeqLen(nd)
}

// parentSeqLen derives nd's subsequence length from its parent's
// bitvector (or n at the root) — the Definition 3.1 invariant value,
// independent of nd's own payload.
func (w *wtrie) parentSeqLen(nd *node) int {
	parent := nd.Parent()
	if parent == nil {
		return w.n
	}
	if nd.ChildBit() == 1 {
		return parent.Payload.Ones()
	}
	return parent.Payload.Len() - parent.Payload.Ones()
}

// checkConsistency validates the wavelet-trie invariants; used by tests
// and returned errors name the first violated property.
func (w *wtrie) checkConsistency() error {
	if w.t.Root() == nil {
		if w.n != 0 {
			return fmt.Errorf("empty trie but n=%d", w.n)
		}
		return nil
	}
	var err error
	w.t.Walk(func(nd *node, _ int) {
		if err != nil {
			return
		}
		if nd.IsLeaf() {
			// Every stored string occurs at least once (Dynamic removes
			// leaves whose last occurrence is deleted), so an empty leaf
			// marks a corrupt structure.
			if nd.Parent() != nil && w.parentSeqLen(nd) == 0 {
				err = fmt.Errorf("leaf with empty subsequence")
			}
			return
		}
		if nd.Payload == nil {
			err = fmt.Errorf("internal node without bitvector")
			return
		}
		if got, want := nd.Payload.Len(), w.parentSeqLen(nd); got != want {
			err = fmt.Errorf("bitvector length %d != expected subsequence length %d", got, want)
		}
	})
	if err != nil {
		return err
	}
	if root := w.t.Root(); !root.IsLeaf() && root.Payload.Len() != w.n {
		return fmt.Errorf("root bitvector length %d != n %d", root.Payload.Len(), w.n)
	}
	return nil
}
