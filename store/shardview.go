package store

import (
	"sort"
	"sync"

	wavelettrie "repro"
)

// segment is one contiguous slab of a shard's sequence — a frozen
// generation or a bounded memtable view. A shardView stitches
// per-segment answers with offset and rank arithmetic. Keyed reads take
// the request's probe: whether it matches whole values or a byte prefix
// is the probe's own property.
type segment interface {
	Len() int
	Access(pos int) string
	// rank counts k's matches in positions [0, pos).
	rank(k *probe, pos int) int
	// sel returns the position of k's idx-th (0-based) match.
	sel(k *probe, idx int) (int, bool)
	// cursor opens the matches of the prefix probe k, in position order,
	// behind a pull cursor — the only way a prefix's matches leave a
	// segment; see matchCursor. The consumer runs between the cursor's
	// calls, with no lock held.
	cursor(k *probe) matchCursor
	Iterate(l, r int, fn func(pos int, s string) bool)
	// alphabet adds the trie behind the segment to the union
	// Snapshot.AlphabetSize walks — the whole trie, whatever a view's clamp.
	alphabet(u *alphabetUnion)
	Height() int
	SizeBits() int
}

// snapSeg pairs a segment with, when the store has a column schema, the
// segment's column reader.
type snapSeg struct {
	segment
	cols colReader
}

// shardView is one shard's part of a Snapshot, in the shard's own
// positions: its generation list (including any memtable sealed but not
// yet persisted) plus its live memtable clamped to the length at capture
// time, each a segment, stitched by offset arithmetic. A flat store's
// Snapshot is one of these; a SHARDS store's cuts one per shard at the
// watermark (prefixed). Nothing a query does writes to it but the
// AlphabetSize memo.
type shardView struct {
	segs []snapSeg
	offs []int // offs[i] = start of segs[i]; offs[len(segs)] = len

	// What shard.snapshot recognises its current view by: the state it was
	// built from and the live memtable length it clamps to. Nil and zero on
	// a prefixed cut.
	state  *storeState
	memLen int64

	// alphabetSize's answer, derived by the first call.
	distinctOnce sync.Once
	distinct     int
	distinctErr  error
}

func newShardView(segs []snapSeg) *shardView {
	offs := make([]int, len(segs)+1)
	for i, seg := range segs {
		offs[i+1] = offs[i] + seg.Len()
	}
	return &shardView{segs: segs, offs: offs}
}

func (v *shardView) len() int { return v.offs[len(v.segs)] }

// alphabetSize counts the distinct strings of the view's segments: the
// leaves of the union of their tries; see Snapshot.AlphabetSize.
func (v *shardView) alphabetSize() int {
	v.distinctOnce.Do(func() {
		var u alphabetUnion
		for _, seg := range v.segs {
			seg.alphabet(&u)
		}
		v.distinct, v.distinctErr = u.size()
	})
	if v.distinctErr != nil {
		panic("store: AlphabetSize: " + v.distinctErr.Error())
	}
	return v.distinct
}

// alphabetUnion collects the tries behind a view's segments.
type alphabetUnion struct {
	frozen []*wavelettrie.Frozen
	mems   []*memtable
}

// size counts the union's distinct strings, holding every memtable's read
// lock for the walk (sealed before live, the one order they are ever
// taken together in).
func (u *alphabetUnion) size() (int, error) {
	live := make([]*wavelettrie.AppendOnly, len(u.mems))
	for i, m := range u.mems {
		m.mu.RLock()
		defer m.mu.RUnlock()
		live[i] = m.trie
	}
	return wavelettrie.UnionAlphabetSize(u.frozen, live)
}

func (v *shardView) height() int {
	h := 0
	for _, seg := range v.segs {
		h = max(h, seg.Height())
	}
	return h
}

func (v *shardView) sizeBits() int {
	total := 0
	for _, seg := range v.segs {
		total += seg.SizeBits()
	}
	return total
}

// locate returns the segment containing position pos and pos relative to
// its start: a binary search over the (few) segment offsets.
func (v *shardView) locate(pos int) (int, int) {
	i := sort.SearchInts(v.offs, pos+1) - 1
	return i, pos - v.offs[i]
}

func (v *shardView) access(pos int) string {
	i, rel := v.locate(pos)
	return v.segs[i].Access(rel)
}

// rank counts k's matches in [0, pos): the full-segment ranks before pos
// plus a partial rank in the segment containing it.
func (v *shardView) rank(k *probe, pos int) int {
	total := 0
	for i, seg := range v.segs {
		segPos := pos - v.offs[i]
		if segPos <= 0 {
			break
		}
		total += seg.rank(k, min(segPos, seg.Len()))
	}
	return total
}

// sel returns the position of k's idx-th (0-based) match, with ok=false
// when there are not that many: walk the segments accumulating their
// counts until the one holding it.
func (v *shardView) sel(k *probe, idx int) (int, bool) {
	if idx < 0 {
		return 0, false
	}
	cum := 0
	for i, seg := range v.segs {
		c := seg.rank(k, seg.Len())
		if idx < cum+c {
			pos, ok := seg.sel(k, idx-cum)
			if !ok {
				return 0, false
			}
			return v.offs[i] + pos, true
		}
		cum += c
	}
	return 0, false
}

// iterate streams positions [l, r) in order, stopping early if fn returns
// false. Frozen generations are walked with their streaming enumerator
// (one trie walk per generation instead of one root descent per element);
// memtable views are extracted in bounded batches under their read lock,
// with fn always called lock-free.
func (v *shardView) iterate(l, r int, fn func(pos int, s string) bool) {
	for i, seg := range v.segs {
		off := v.offs[i]
		if off >= r {
			return
		}
		lo, hi := max(l-off, 0), min(r-off, seg.Len())
		if lo >= hi {
			continue
		}
		stopped := false
		seg.Iterate(lo, hi, func(p int, s string) bool {
			if !fn(off+p, s) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// cols returns the column reader of the segment holding position pos
// (nil when it has none) and pos relative to the segment.
func (v *shardView) cols(pos int) (colReader, int) {
	i, rel := v.locate(pos)
	return v.segs[i].cols, rel
}

// countPred sums one predicate's rank-arithmetic count over the segments.
// Allocation-free — the CountWhere fast path.
func (v *shardView) countPred(p Pred) int {
	lo, hi, negate, empty := predRange(p.Op, p.Val)
	if empty {
		return 0
	}
	count := 0
	for _, seg := range v.segs {
		if seg.cols == nil {
			continue
		}
		n := seg.Len()
		if negate {
			count += seg.cols.colPresent(p.Col, 0, n) - seg.cols.colRange(p.Col, 0, n, lo, hi)
		} else {
			count += seg.cols.colRange(p.Col, 0, n, lo, hi)
		}
	}
	return count
}

// prefixed returns a view of the first n elements — the cut a sharded
// Snapshot pins so every shard's view ends exactly at the cross-shard
// watermark. n must not exceed len.
func (v *shardView) prefixed(n int) *shardView {
	if n >= v.len() {
		return v
	}
	var segs []snapSeg
	for i, seg := range v.segs {
		if v.offs[i] >= n {
			break
		}
		if v.offs[i+1] <= n {
			segs = append(segs, seg)
			continue
		}
		keep := n - v.offs[i]
		cols := seg.cols
		if cols != nil {
			cols = clampCols{cols: cols, n: keep}
		}
		segs = append(segs, snapSeg{segment: clampSeg{seg.segment, keep}, cols: cols})
	}
	return newShardView(segs)
}

// clampSeg bounds a segment to its first n elements, the same way
// memView clamps a live memtable: positional arguments are capped, and
// Select is guarded by the clamped rank so an occurrence beyond the
// bound is invisible rather than out of range.
type clampSeg struct {
	segment
	n int
}

// Len returns the clamped element count.
func (c clampSeg) Len() int { return c.n }

// rank counts k's matches in [0, min(pos, n)).
func (c clampSeg) rank(k *probe, pos int) int { return c.segment.rank(k, min(pos, c.n)) }

// sel resolves k's idx-th match within the clamped prefix.
func (c clampSeg) sel(k *probe, idx int) (int, bool) {
	if idx < 0 || idx >= c.segment.rank(k, c.n) {
		return 0, false
	}
	return c.segment.sel(k, idx)
}

// cursor bounds the segment's cursor: positions ascend, so the first one
// at or past the bound ends the stream.
func (c clampSeg) cursor(k *probe) matchCursor { return clampCursor{c.segment.cursor(k), c.n} }

type clampCursor struct {
	matchCursor
	n int
}

func (c clampCursor) rankAt(pos int) int { return c.matchCursor.rankAt(min(pos, c.n)) }

func (c clampCursor) next() (int, bool) {
	pos, ok := c.matchCursor.next()
	return pos, ok && pos < c.n
}

// Iterate streams [l, r) within the clamped prefix.
func (c clampSeg) Iterate(l, r int, fn func(pos int, s string) bool) {
	c.segment.Iterate(l, min(r, c.n), fn)
}

// snapCursor is a shard view's matches of a prefix probe in position
// order, one at a time, from a matchCursor per segment — the stream
// Snapshot.scan emits from, or merges one of per shard. A segment is
// descended when first needed: for its match count, label-only, when a
// rank or a seek only passes over it; for its cursor when a rank falls
// inside it or the stream reaches it — so at most twice. Not safe for
// concurrent use.
type snapCursor struct {
	v    *shardView
	k    *probe
	segs []segCursor // one per segment
	i    int         // the segment the stream is in
	at   int         // the position of the match next last returned
	// cols[i] reads segment i's cells, for the row test and a page's rows:
	// one colCursor a scan and segment, made when first needed.
	cols []colCursor
	one  [1]int // value's batch
}

type segCursor struct {
	matchCursor     // nil until made
	n           int // the segment's match count plus one; 0 until asked for
}

func (c *snapCursor) seg(i int) matchCursor {
	if c.segs[i].matchCursor == nil {
		c.segs[i].matchCursor = c.v.segs[i].cursor(c.k)
	}
	return c.segs[i].matchCursor
}

// count returns segment i's match count, remembered from one probe of a
// seek to the next.
func (c *snapCursor) count(i int) int {
	if c.segs[i].n == 0 {
		seg := c.v.segs[i]
		c.segs[i].n = 1 + seg.rank(c.k, seg.Len())
	}
	return c.segs[i].n - 1
}

// rankAt counts the matches at positions before pos: the counts of the
// segments wholly before it and a rank along the remembered path in the
// one that holds it.
func (c *snapCursor) rankAt(pos int) int {
	total := 0
	for i, off := range c.v.offs[:len(c.segs)] {
		switch {
		case pos <= off:
			return total
		case pos < c.v.offs[i+1]:
			return total + c.seg(i).rankAt(pos-off)
		}
		total += c.count(i)
	}
	return total
}

// seek makes match j (0-based) the one next returns.
func (c *snapCursor) seek(j int) {
	for c.i = 0; c.i < len(c.segs); c.i++ {
		n := c.count(c.i)
		if j < n {
			c.seg(c.i).seek(j)
			return
		}
		j -= n
	}
}

// next returns the position of the next match, ok=false past the last.
func (c *snapCursor) next() (pos int, ok bool) {
	for ; c.i < len(c.segs); c.i++ {
		if pos, ok := c.seg(c.i).next(); ok {
			c.at = c.v.offs[c.i] + pos
			return c.at, true
		}
	}
	return 0, false
}

// value appends to dst the value of the match next last returned: a batch
// of one.
func (c *snapCursor) value(dst []byte) []byte {
	sc := c.segs[c.i]
	c.one[0] = sc.mark()
	sc.values(c.one[:], func(_ int, v []byte) { dst = append(dst, v...) })
	return dst
}

// cells returns the cell cursor of the segment of the match next last
// returned, and the match's position in the segment; nil when the segment
// has no columns.
func (c *snapCursor) cells() (colCursor, int) {
	cols := c.v.segs[c.i].cols
	if cols == nil {
		return nil, 0
	}
	if c.cols == nil {
		c.cols = make([]colCursor, len(c.segs))
	}
	if c.cols[c.i] == nil {
		c.cols[c.i] = cols.cells()
	}
	return c.cols[c.i], c.at - c.v.offs[c.i]
}

// match tests the row of the match next last returned against
// pre-validated preds, through the segment's cell cursor.
func (c *snapCursor) match(preds []Pred) bool {
	cc, rel := c.cells()
	for _, p := range preds {
		if cc == nil || !matchValue(cc.colValue(p.Col, rel), p) {
			return false
		}
	}
	return true
}

// row appends to dst the n cells of the row of the match next last
// returned (NULL where the segment has no columns).
func (c *snapCursor) row(dst []Value, n int) []Value {
	cc, rel := c.cells()
	for j := 0; j < n; j++ {
		var v Value
		if cc != nil {
			v = cc.colValue(j, rel)
		}
		dst = append(dst, v)
	}
	return dst
}

func (c *snapCursor) close() {
	for _, sc := range c.segs {
		if sc.matchCursor != nil {
			sc.close()
		}
	}
}
