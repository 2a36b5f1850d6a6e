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
// SelectIn. Values come from the page extractor (iterate.go) run at the
// node on the match indices themselves — a page of them in one top-down
// pass (Values) — behind the node's root path, which is the key's own
// first bits.
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

	head int        // length of nd's root path in bits, a prefix of key
	x    *extractor // the values' extractor, taken for the first value asked for
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
	if len(path) > 0 {
		c.head = path[len(path)-1].off + 1 // nd's label starts past the last branch bit
	}
	c.levels = make([]cursorLevel, len(path))
	for i, st := range path {
		start, end := t.seg(st.ii)
		c.levels[i] = cursorLevel{bit: st.bit, start: start, sel: t.bits.Selector(st.bit, start, end)}
	}
	return c
}

// Close ends the enumeration and hands the values' extractor back for the
// next pass to reuse. It is optional, and the cursor must not be used
// after it.
func (c *PrefixCursor) Close() {
	if c.x != nil {
		c.x.release()
	}
	c.x = nil
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

// extract runs the extractor at the prefix's node on the match indices
// js, strictly ascending.
func (c *PrefixCursor) extract(js []int) *extractor {
	for k, j := range js {
		if j < 0 || j >= c.count || k > 0 && j <= js[k-1] {
			panic(fmt.Sprintf("succinct: prefix match %d out of range [0,%d) or not after the last", j, c.count))
		}
	}
	if c.x == nil {
		c.x = extractors.Get().(*extractor)
	}
	c.x.run(c.t, c.nd, c.key.Words(), c.head, js)
	return c.x
}

// Values decodes the values of the matches js — strictly ascending match
// indices, a page of them — in one top-down pass below the prefix's node, and calls
// fn with each in js's order: k indexes js, and v, the value's bytes, is
// valid only during the call. Each distinct value is decoded once.
func (c *PrefixCursor) Values(js []int, fn func(k int, v []byte)) {
	if len(js) == 0 {
		return
	}
	x := c.extract(js)
	x.decodeLeaves()
	for k, lf := range x.leaf {
		fn(k, x.text[x.ends[lf]:x.ends[lf+1]])
	}
}

// Strings is Values into strings: dst[k] is match js[k]'s value, and the
// matches that hold the same value share one string.
func (c *PrefixCursor) Strings(js []int, dst []string) {
	if len(js) == 0 {
		return
	}
	x := c.extract(js)
	x.decodeLeaves()
	x.strs = x.strs[:0]
	for i := range x.spans {
		x.strs = append(x.strs, string(x.text[x.ends[i]:x.ends[i+1]]))
	}
	for k, lf := range x.leaf {
		dst[k] = x.strs[lf]
	}
	clear(x.strs) // the pooled extractor keeps no value alive
}

// decodeLeaves decodes the last batch's leaves into text.
func (x *extractor) decodeLeaves() {
	x.text, x.ends = x.text[:0], append(x.ends[:0], 0)
	for i := range x.spans {
		var err error
		if x.text, err = bitstr.AppendDecoded(x.text, x.leafBits(i)); err != nil {
			panic("succinct: internal corruption: " + err.Error())
		}
		x.ends = append(x.ends, len(x.text))
	}
}
