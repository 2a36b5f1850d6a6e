// Package wavelettree holds the repository's two wavelet structures over
// integers. Matrix, the wavelet matrix over fixed-width values, is the
// store's one integer rank/select substrate: a frozen generation's numeric
// columns (its planes are the column image's plane array, decoded in place)
// and the sharded router's sealed chunks.
//
// Tree is the classical balanced Wavelet Tree of Grossi, Gupta and
// Vitter [13 in the paper] over an integer alphabet, together with the
// dictionary mapping that turns a string sequence into an integer
// sequence — the paper's related-work approach (1) (§1).
//
// Tree is the baseline the Wavelet Trie is compared against. It supports
// Access/Rank/Select in O(log σ) with RRR-compressed bitvectors in
// nH₀(S) + o(n log σ) bits, and — when the dictionary mapping preserves
// lexicographic order, as here — RankPrefix via the RangeCount reduction
// of Mäkinen-Navarro [17]. Its two structural limitations, which §1 calls
// out and the CMP experiment demonstrates, are intentional:
//
//   - the alphabet is frozen at construction: appending an unseen value
//     requires a full rebuild (Rebuild);
//   - SelectPrefix has no sublinear algorithm; SelectPrefixScan is the
//     honest linear fallback.
package wavelettree

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/rrr"
)

// Tree is a static balanced Wavelet Tree over a string sequence.
type Tree struct {
	dict []string // sorted distinct values; index in dict = symbol id
	ids  map[string]int
	root *node
	n    int
}

// node covers the symbol range [lo, hi); leaves have hi-lo == 1.
type node struct {
	bv   *rrr.Vector
	lo   int
	hi   int
	kids [2]*node
}

// New builds a Wavelet Tree over seq. The alphabet is the set of distinct
// values of seq, mapped to symbols in lexicographic order.
func New(seq []string) *Tree {
	t := &Tree{n: len(seq), ids: map[string]int{}}
	for _, s := range seq {
		if _, ok := t.ids[s]; !ok {
			t.ids[s] = 0
			t.dict = append(t.dict, s)
		}
	}
	sort.Strings(t.dict)
	for i, s := range t.dict {
		t.ids[s] = i
	}
	if len(seq) == 0 {
		return t
	}
	sym := make([]int, len(seq))
	for i, s := range seq {
		sym[i] = t.ids[s]
	}
	t.root = build(sym, 0, len(t.dict))
	return t
}

// build recursively constructs the subtree for symbols [lo, hi) over the
// projected subsequence sym.
func build(sym []int, lo, hi int) *node {
	nd := &node{lo: lo, hi: hi}
	if hi-lo == 1 {
		return nd
	}
	mid := (lo + hi) / 2
	b := bitvec.NewBuilder(len(sym))
	var left, right []int
	for _, s := range sym {
		if s >= mid {
			b.AppendBit(1)
			right = append(right, s)
		} else {
			b.AppendBit(0)
			left = append(left, s)
		}
	}
	nd.bv = rrr.FromBitvec(b.Build())
	nd.kids[0] = build(left, lo, mid)
	nd.kids[1] = build(right, mid, hi)
	return nd
}

// Contains reports whether s is in the (frozen) alphabet.
func (t *Tree) Contains(s string) bool { _, ok := t.ids[s]; return ok }

// Access returns the element at position pos.
func (t *Tree) Access(pos int) string {
	if pos < 0 || pos >= t.n {
		panic(fmt.Sprintf("wavelettree: Access(%d) out of range [0,%d)", pos, t.n))
	}
	nd := t.root
	for nd.hi-nd.lo > 1 {
		bit := nd.bv.Access(pos)
		pos = nd.bv.Rank(bit, pos)
		nd = nd.kids[bit]
	}
	return t.dict[nd.lo]
}

// Rank counts occurrences of s in positions [0, pos).
func (t *Tree) Rank(s string, pos int) int {
	if pos < 0 || pos > t.n {
		panic(fmt.Sprintf("wavelettree: Rank position %d out of range [0,%d]", pos, t.n))
	}
	id, ok := t.ids[s]
	if !ok {
		return 0
	}
	nd := t.root
	for nd.hi-nd.lo > 1 {
		mid := (nd.lo + nd.hi) / 2
		bit := byte(0)
		if id >= mid {
			bit = 1
		}
		pos = nd.bv.Rank(bit, pos)
		nd = nd.kids[bit]
	}
	return pos
}

// Select returns the position of the idx-th (0-based) occurrence of s.
func (t *Tree) Select(s string, idx int) (int, bool) {
	id, ok := t.ids[s]
	if !ok || idx < 0 {
		return 0, false
	}
	if idx >= t.Rank(s, t.n) {
		return 0, false
	}
	return selRec(t.root, id, idx), true
}

func selRec(nd *node, id, idx int) int {
	if nd.hi-nd.lo == 1 {
		return idx
	}
	mid := (nd.lo + nd.hi) / 2
	bit := byte(0)
	if id >= mid {
		bit = 1
	}
	idx = selRec(nd.kids[bit], id, idx)
	return nd.bv.Select(bit, idx)
}

// RangeCount counts positions in [posL, posR) whose symbol id lies in
// [symLo, symHi) — the two-dimensional counting primitive of [17].
func (t *Tree) RangeCount(posL, posR, symLo, symHi int) int {
	if posL < 0 || posR > t.n || posL > posR {
		panic(fmt.Sprintf("wavelettree: RangeCount positions [%d,%d) out of range", posL, posR))
	}
	if t.root == nil || symLo >= symHi {
		return 0
	}
	return rangeCount(t.root, posL, posR, symLo, symHi)
}

func rangeCount(nd *node, l, r, symLo, symHi int) int {
	if l >= r || symLo >= nd.hi || symHi <= nd.lo {
		return 0
	}
	if symLo <= nd.lo && nd.hi <= symHi {
		return r - l
	}
	z0, z1 := nd.bv.Rank(0, l), nd.bv.Rank(0, r)
	return rangeCount(nd.kids[0], z0, z1, symLo, symHi) +
		rangeCount(nd.kids[1], l-z0, r-z1, symLo, symHi)
}

// prefixSymbolRange returns the contiguous dictionary range [a, b) of
// symbols having byte prefix p (possibly empty).
func (t *Tree) prefixSymbolRange(p string) (int, int) {
	a := sort.SearchStrings(t.dict, p)
	b := a + sort.Search(len(t.dict)-a, func(j int) bool {
		return !strings.HasPrefix(t.dict[a+j], p)
	})
	return a, b
}

// RankPrefix counts elements in [0, pos) having byte prefix p, via the
// lexicographic-range RangeCount reduction.
func (t *Tree) RankPrefix(p string, pos int) int {
	if t.root == nil {
		return 0
	}
	a, b := t.prefixSymbolRange(p)
	return t.RangeCount(0, pos, a, b)
}

// SelectPrefixScan returns the position of the idx-th element with byte
// prefix p by scanning candidate positions. This is deliberately the
// honest fallback: the paper observes that approach (1) has no efficient
// SelectPrefix even with an order-preserving dictionary. Cost: one
// Select per symbol in the prefix range per step, O(σ_p·log σ) per
// result in the worst case.
func (t *Tree) SelectPrefixScan(p string, idx int) (int, bool) {
	if idx < 0 || t.root == nil {
		return 0, false
	}
	a, b := t.prefixSymbolRange(p)
	if a >= b {
		return 0, false
	}
	// Merge the per-symbol occurrence lists by repeatedly taking the
	// smallest next position among the range's symbols.
	next := make([]int, b-a)   // per-symbol occurrence cursor
	counts := make([]int, b-a) // total occurrences per symbol
	for i := a; i < b; i++ {
		counts[i-a] = t.Rank(t.dict[i], t.n)
	}
	for step := 0; ; step++ {
		bestPos, bestSym := -1, -1
		for i := a; i < b; i++ {
			if next[i-a] >= counts[i-a] {
				continue
			}
			pos, _ := t.Select(t.dict[i], next[i-a])
			if bestPos == -1 || pos < bestPos {
				bestPos, bestSym = pos, i
			}
		}
		if bestPos == -1 {
			return 0, false
		}
		if step == idx {
			return bestPos, true
		}
		next[bestSym-a]++
	}
}

// Rebuild returns a new tree over the concatenation of the old sequence
// and extra — the cost approach (1) pays whenever an unseen value arrives
// (issue (a) in §1). The old sequence is re-extracted by Access.
func (t *Tree) Rebuild(extra []string) *Tree {
	seq := make([]string, 0, t.n+len(extra))
	for i := 0; i < t.n; i++ {
		seq = append(seq, t.Access(i))
	}
	seq = append(seq, extra...)
	return New(seq)
}

// SizeBits returns the measured footprint: RRR bitvectors, the dictionary
// strings, and per-node/per-entry pointer words.
func (t *Tree) SizeBits() int {
	s := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if nd == nil {
			return
		}
		s += 4 * 64 // node words
		if nd.bv != nil {
			s += nd.bv.SizeBits()
		}
		walk(nd.kids[0])
		walk(nd.kids[1])
	}
	walk(t.root)
	for _, d := range t.dict {
		s += len(d)*8 + 2*64
	}
	return s
}

// Dump renders the tree structure (projected strings and bitvectors) for
// golden tests; Figure 1 of the paper is checked against it.
type DumpNode struct {
	Symbols string // the dictionary slice this node covers, concatenated
	Bits    string
	Kids    []*DumpNode
}

// Dump materializes the structure; intended for tests and small trees.
func (t *Tree) Dump() *DumpNode {
	var rec func(nd *node) *DumpNode
	rec = func(nd *node) *DumpNode {
		if nd == nil {
			return nil
		}
		d := &DumpNode{Symbols: strings.Join(t.dict[nd.lo:nd.hi], "")}
		if nd.bv != nil {
			buf := make([]byte, nd.bv.Len())
			for i := range buf {
				buf[i] = '0' + nd.bv.Access(i)
			}
			d.Bits = string(buf)
			d.Kids = []*DumpNode{rec(nd.kids[0]), rec(nd.kids[1])}
		}
		return d
	}
	return rec(t.root)
}
