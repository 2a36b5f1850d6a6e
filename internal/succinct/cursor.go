package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dfuds"
	"repro/internal/rrr"
)

// PrefixCursor enumerates, in position order, the elements having a bit
// prefix — §5's range algorithm turned around: Rank/Select are paid where
// the enumeration starts, and from there the bitvectors are read forward.
// One label-only descend finds the prefix's node; match j of the node's
// subsequence is then mapped up to a root position by one select per path
// level. Successive matches ask every level for non-decreasing targets,
// so each level keeps an rrr.Selector that remembers its block, and a run
// of matches costs a few word operations per level instead of a sampled
// SelectIn. Values, when wanted, come from a walk rooted at the node (see
// iterate.go), behind the node's root path — which is the key's own first
// bits.
//
// A cursor is not safe for concurrent use, and is valid only while the
// key it was made from is.
type PrefixCursor struct {
	t      *Trie
	key    bitstr.BitString
	nd     dfuds.BinaryNode
	count  int
	next   int           // index of the match Next returns
	levels []cursorLevel // nd's root path, root first

	head int  // length of nd's root path in bits, a prefix of key; valid iff w.t != nil
	w    walk // the value walk, rooted at nd; opened by the first ValueInto
	// Where AppendValue assembles a match's bits (the walk keeps a builder's
	// words reachable, so a buffer local to AppendValue would be allocated
	// per match).
	buf [bitstr.KeyWords]uint64
}

// cursorLevel is one branch of the prefix node's root path: the bit
// followed, where the parent's segment starts, and the monotone selector
// for that bit in it.
type cursorLevel struct {
	bit   byte
	start int
	sel   rrr.Selector
}

// PrefixCursor returns a cursor over the elements with bit prefix p,
// positioned at match 0.
func (t *Trie) PrefixCursor(p bitstr.BitString) *PrefixCursor {
	c := &PrefixCursor{t: t, key: p}
	var buf [48]step // deeper tries spill to the heap
	nd, up, _, path, ok := t.descend(p, false, -1, buf[:0])
	if !ok {
		return c
	}
	c.nd, c.count = nd, t.count(nd, up)
	c.levels = make([]cursorLevel, len(path))
	for i, st := range path {
		start, end := t.seg(st.ii)
		c.levels[i] = cursorLevel{bit: st.bit, start: start, sel: t.bits.Selector(st.bit, start, end)}
	}
	return c
}

// Close ends the enumeration and hands the value walk's memory back for
// the next one to reuse. It is optional, and the cursor must not be used
// after it.
func (c *PrefixCursor) Close() {
	c.w.release()
	c.count = 0
}

// Count returns how many elements have the prefix.
func (c *PrefixCursor) Count() int { return c.count }

// Seek makes j the index of the match the following Next returns. Any j
// is accepted; seeking forward keeps the selectors' remembered blocks
// useful.
func (c *PrefixCursor) Seek(j int) { c.next = j }

// Next returns the position of the next match, or ok=false past the last
// one.
func (c *PrefixCursor) Next() (pos int, ok bool) {
	if c.next < 0 || c.next >= c.count {
		return 0, false
	}
	pos = c.next
	c.next++
	for i := len(c.levels) - 1; i >= 0; i-- {
		pos = c.levels[i].sel.Select(pos)
	}
	return pos, true
}

// RankAt counts the matches at positions before pos — RankPrefixBits
// without its descent: pos is carried down the remembered root path, one
// RRR rank per level, with no label compared and no directory read. It
// leaves Next where it was.
func (c *PrefixCursor) RankAt(pos int) int {
	if c.count == 0 {
		return 0
	}
	for i := range c.levels {
		if pos == 0 {
			return 0
		}
		lv := &c.levels[i]
		if ones := c.t.bits.RankIn(lv.start, pos); lv.bit == 1 {
			pos = ones
		} else {
			pos -= ones
		}
	}
	return pos
}

// ValueInto appends to b the element that is match j. Consecutive j's
// stream through the walk's open cursors; any j is answered.
func (c *PrefixCursor) ValueInto(b *bitstr.Builder, j int) {
	if j < 0 || j >= c.count {
		panic(fmt.Sprintf("succinct: prefix match %d out of range [0,%d)", j, c.count))
	}
	if c.w.t == nil {
		// The root path's length: every branch above nd contributed its
		// node's label and one bit, all of them matched against the key.
		t := c.t
		nd := t.tree.BinaryRoot()
		for i := range c.levels {
			lo, hi := t.labelRange(nd)
			c.head += hi - lo + 1
			nd = t.tree.BinaryChild(nd, c.levels[i].bit)
		}
		c.w = t.newWalk(c.nd, j)
	}
	b.AppendRange(c.key.Words(), 0, c.head)
	c.w.next(j, b)
}

// AppendValue appends to dst the bytes of the element that is match j:
// ValueInto, decoded.
func (c *PrefixCursor) AppendValue(dst []byte, j int) []byte {
	b := bitstr.BuilderOver(c.buf[:])
	c.ValueInto(&b, j)
	out, err := bitstr.AppendDecoded(dst, b.View())
	if err != nil {
		panic("succinct: internal corruption: " + err.Error())
	}
	return out
}
