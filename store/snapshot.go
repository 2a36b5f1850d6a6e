package store

import (
	"fmt"
	"sync"

	wavelettrie "repro"
)

// Snapshot is an immutable, consistent view of a store's sequence at the
// moment Snapshot() was called, whatever the store's layout: one
// view per shard — the shard's generations (including any memtable sealed
// but not yet persisted) and its live memtable clamped to its length at
// capture time — cut at the view's length and stitched into global append
// order by the router. Every operation reduces to per-shard operations
// plus router arithmetic:
//
//	Access(g)        = shard[at(g)].access(rank(at(g), g))
//	Rank(v, pos)     = shard[pick(v)].rank(v, rank(pick(v), pos))
//	Select(v, i)     = selectShard(pick(v), shard[pick(v)].sel(v, i))
//	RankPrefix(p, ·) = Σ_s shard[s].rank(p, rank(s, ·))
//
// A flat store's view, and a one-shard SHARDS store's, has one shard and
// no router, and every router term above is the identity (see locate): such
// a view does no router work. Point lookups on whole values touch exactly
// one shard — pickShard is a function of the value alone, so every
// occurrence of v lives on pick(v). Prefix queries fan out to all shards,
// since values sharing a prefix hash apart.
//
// All operations are safe for concurrent use and keep answering the same
// way during later appends, flushes and compactions — readers are isolated
// from writers. One Snapshot is shared by every reader of the same store
// state (see Store.Snapshot), so nothing a query does may write to it; the
// per-shard AlphabetSize memo is the one exception.
type Snapshot struct {
	r      *router      // the interleave; nil with one shard
	n      int          // the visible length
	shards []*shardView // each shard's view, cut at n
	base   []*shardView // with a router: the shards' pinned views the cuts were made from
	schema []ColumnSpec // the store's pinned column schema (possibly empty)
}

// Snapshot serves the query surface the stores forward to it.
var _ wavelettrie.StringIndex = (*Snapshot)(nil)

// The router arithmetic every method below is written in. With one shard
// r is nil and each is the identity: a position is the shard's own.

// locate returns the shard holding global position pos and pos's position
// in that shard, in one router pass.
func (sn *Snapshot) locate(pos int) (shard, local int) {
	if sn.r == nil {
		return 0, pos
	}
	return sn.r.locate(uint64(pos))
}

// cut returns shard s's image of the global cut pos: its element count
// before pos.
func (sn *Snapshot) cut(s, pos int) int {
	if sn.r == nil {
		return pos
	}
	return sn.r.rank(s, uint64(pos))
}

// global returns the global position of shard s's local position local.
func (sn *Snapshot) global(s, local int) int {
	if sn.r == nil {
		return local
	}
	return sn.r.selectShard(s, local)
}

// owner returns the shard every occurrence of v lives on.
func (sn *Snapshot) owner(v string) int {
	if sn.r == nil {
		return 0
	}
	return pickShard(v, len(sn.shards))
}

// Len returns the number of elements visible in this snapshot.
func (sn *Snapshot) Len() int { return sn.n }

// AlphabetSize returns the number of distinct strings in the snapshot —
// the sum of the shards' counts (disjoint: pickShard routes by value).
// Nothing maintains a count: the first call derives each shard's — the
// leaves of the union of its segments' tries, a walk over their shapes
// that compares labels and reads no bitvector and no element, so it costs
// the tries' node counts (5.5 ms for eight 16 Ki-value generations and a
// memtable; O(1) when one segment holds everything) — and the view
// remembers it. A memtable is walked under its read lock, whole: under
// concurrent appends the count takes the live memtable as it stands at
// that first call, not clamped to the snapshot's prefix, so it may lead
// the visible sequence by later appends; it is exact when quiescent. Like
// any keyed read, it panics on a generation damaged since its checksum
// was verified.
func (sn *Snapshot) AlphabetSize() int {
	total := 0
	for _, sh := range sn.shards {
		total += sh.alphabetSize()
	}
	return total
}

// Height returns the maximum trie height over the snapshot's segments —
// a lower bound on the height of a single trie over the merged sequence.
func (sn *Snapshot) Height() int {
	h := 0
	for _, sh := range sn.shards {
		h = max(h, sh.height())
	}
	return h
}

// SizeBits returns the summed in-memory footprint of the snapshot's
// segments, plus the router's when it has one.
func (sn *Snapshot) SizeBits() int {
	total := 0
	if sn.r != nil {
		total = sn.r.info().Bits
	}
	for _, sh := range sn.shards {
		total += sh.sizeBits()
	}
	return total
}

// ContentFingerprint returns a 64-bit hash of the snapshot's visible
// sequence contents — FNV-1a over every value, length-delimited, and,
// when the store has a column schema, over every position's payload row
// (each cell mixed as its kind tag then its value). It depends only on
// the values, rows and their order, so it compares across stores and
// layouts: a replication follower and its primary, or a plain and a
// sharded store, agree on it exactly when they hold the same sequence and
// payloads, whatever their flush and compaction histories. Each value is
// mixed as its length then its bytes, so concatenation boundaries are
// unambiguous ("ab","c" never collides with "a","bc"). Cost is O(n) — a
// full iteration — so it is a verification tool, not a serving-path key.
func (sn *Snapshot) ContentFingerprint() uint64 {
	h := uint64(fnvOffset64)
	sn.Iterate(0, sn.n, func(pos int, v string) bool {
		h = fpMix(h, uint64(len(v)))
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= fnvPrime64
		}
		for c := range sn.schema {
			cell := sn.cellAt(pos, c)
			h = fpMix(h, uint64(cell.kind))
			switch cell.kind {
			case ColUint64:
				h = fpMix(h, cell.num)
			case ColBytes:
				h = fpMix(h, uint64(len(cell.b)))
				for _, b := range cell.b {
					h ^= uint64(b)
					h *= fnvPrime64
				}
			}
		}
		return true
	})
	return h
}

// 64-bit FNV-1a: pickShard routes by the same mixing at 32 bits.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Access returns the string at position pos. It panics if pos is out of
// range, like a slice access.
func (sn *Snapshot) Access(pos int) string {
	if pos < 0 || pos >= sn.n {
		panic(fmt.Sprintf("store: Access(%d) out of range [0,%d)", pos, sn.n))
	}
	s, local := sn.locate(pos)
	return sn.shards[s].access(local)
}

func (sn *Snapshot) checkPos(op string, pos int) {
	if pos < 0 || pos > sn.n {
		panic(fmt.Sprintf("store: %s position %d out of range [0,%d]", op, pos, sn.n))
	}
}

// Rank counts occurrences of v in positions [0, pos); pos may equal
// Len(). Exactly one shard is probed, at its local cut of pos: the sum of
// its full-segment ranks before the cut plus a partial rank in the
// segment containing it.
func (sn *Snapshot) Rank(v string, pos int) int {
	sn.checkPos("Rank", pos)
	s := sn.owner(v)
	return sn.shards[s].rank(newProbe(v, false), sn.cut(s, pos))
}

// Count returns the total number of occurrences of v.
func (sn *Snapshot) Count(v string) int { return sn.Rank(v, sn.n) }

// Select returns the position of the idx-th (0-based) occurrence of v,
// with ok=false when v occurs fewer than idx+1 times: the owning shard
// walks its segments accumulating their counts until the one holding the
// idx-th occurrence, and the router maps the local position back.
func (sn *Snapshot) Select(v string, idx int) (int, bool) {
	s := sn.owner(v)
	local, ok := sn.shards[s].sel(newProbe(v, false), idx)
	if !ok {
		return 0, false
	}
	return sn.global(s, local), true
}

// RankPrefix counts elements in [0, pos) having byte prefix p — the sum
// over all shards at their local cuts; one probe serves every shard and
// generation.
func (sn *Snapshot) RankPrefix(p string, pos int) int {
	sn.checkPos("RankPrefix", pos)
	k, total := newProbe(p, true), 0
	for s, sh := range sn.shards {
		total += sh.rank(k, sn.cut(s, pos))
	}
	return total
}

// CountPrefix returns the total number of elements with byte prefix p.
func (sn *Snapshot) CountPrefix(p string) int { return sn.RankPrefix(p, sn.n) }

// SelectPrefix returns the position of the idx-th (0-based) element with
// byte prefix p, with ok=false when there are not that many. One shard
// answers as Select does; over several, the prefix merge is sought to idx
// and stopped at its first match.
func (sn *Snapshot) SelectPrefix(p string, idx int) (at int, ok bool) {
	if idx < 0 {
		return 0, false
	}
	if len(sn.shards) == 1 {
		return sn.shards[0].sel(newProbe(p, true), idx)
	}
	sn.scan(newProbe(p, true), idx, nil, func(_, pos int, _ *snapCursor) bool {
		at, ok = pos, true
		return false
	})
	return at, ok
}

// IteratePrefix streams the positions of elements with byte prefix p in
// ascending order, starting from the from-th (0-based) match; fn
// receives the match index and position and returns false to stop. The
// from offset is skipped by rank arithmetic (see scan), not replayed, and
// the matches come from one streaming prefix cursor per generation, not a
// descent per match. fn runs with no lock held. It panics if from is
// negative.
func (sn *Snapshot) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	sn.scan(prefixProbe(p, from), from, nil, func(idx, pos int, _ *snapCursor) bool { return fn(idx, pos) })
}

// ScanPrefix is IteratePrefix that also hands fn each match's value,
// from the same cursors — no Access per match, and no string: v is the
// value's bytes in a buffer the next match overwrites, valid only during
// that call of fn. max > 0 makes the scan a page of at most max matches,
// the form a served page takes: the page's positions are found first and
// its values decoded together, in one top-down pass per generation,
// before fn is called — a run of them at a time, 64 and then about a MiB's
// worth, so that fn's stopping also stops the decoding — and more reports
// whether a match lies past the last one fn was handed: finding that out
// decodes nothing. With max ≤ 0
// fn sees every match until it returns false, each value decoded as it
// is handed over, and more is false.
func (sn *Snapshot) ScanPrefix(p string, from, max int, fn func(idx, pos int, v []byte) bool) (more bool) {
	k := prefixProbe(p, from)
	if max > 0 {
		return sn.scanPage(k, from, max, nil, false, func(idx, pos int, v []byte, _ Row) bool { return fn(idx, pos, v) })
	}
	var buf []byte
	sn.scan(k, from, nil, func(idx, pos int, at *snapCursor) bool {
		buf = at.value(buf[:0])
		return fn(idx, pos, buf)
	})
	return false
}

// prefixProbe is the probe of an IteratePrefix or ScanPrefix from the
// from-th match on.
func prefixProbe(p string, from int) *probe {
	if from < 0 {
		panic(fmt.Sprintf("store: prefix scan from %d negative", from))
	}
	return newProbe(p, true)
}

// seekCut returns a position with exactly from matches before it, given
// countAt, the matches before a position: 0 at 0, total (more than from)
// at n, stepping by at most one a position — so the cut exists, just past
// match from-1. A probe is aimed at the middle of the gap match from ends,
// were the bracket's matches evenly spread: four probes on average then. A
// probe that neither halves the bracket nor takes a match out of it is
// followed by a bisection, and every eighth probe bisects regardless, so
// no layout of matches costs more than 8·log₂ n.
func seekCut(n, total, from int, countAt func(pos int) int) int {
	lo, clo, hi, chi := 0, 0, n, total // countAt(lo) == clo <= from < chi == countAt(hi)
	for step, bisect := 1, false; clo < from; step++ {
		w, m := hi-lo, chi-clo
		mid := lo + int(float64(w)*float64(2*(from-clo)+1)/float64(2*(m+1))) // no overflow, and any rounding is a valid probe
		if bisect || step%8 == 0 {
			mid = lo + w/2
		}
		mid = min(max(mid, lo+1), hi-1)
		if c := countAt(mid); c <= from {
			lo, clo = mid, c
		} else {
			hi, chi = mid, c
		}
		bisect = !bisect && 2*(hi-lo) > w && chi-clo == m
	}
	return lo
}

// matchStream is the view's match stream: the matches of a prefix probe
// whose rows pass preds, in position order, as (shard, global position),
// the shard's snapCursor holding the match until the next call.
//
// Each shard's matches come from one snapCursor. With one shard that
// stream is the view's. Over several, a k-way merge holds one head per
// shard — local position from the shard's cursor, global from the
// router's selectShard — emits the smallest and advances only the shard
// it came from, when the next match is asked for. Either way the row test
// runs on the shard, through the cursor's cell cursors, before a
// candidate is emitted or becomes a head: a page of m matches pulls at
// most m + shards.
type matchStream struct {
	sn    *Snapshot
	cur   []snapCursor
	preds []Pred
	heads []int // the shards' head positions, global; negative when none is left
	last  int   // the shard next last emitted from, its pull pending; -1 before the first
	idx   int   // the index of the match next returns
}

// stream opens the match stream of the prefix probe k, its next match
// being number from (0-based) — sought, so nothing before it is replayed,
// when there are no preds; with them nothing is (the intersection has no
// counts), and the caller walks past the survivors before from. ok is
// false when the stream is known to hold no match from there on.
func (sn *Snapshot) stream(k *probe, from int, preds []Pred) (m *matchStream, ok bool) {
	m = &matchStream{sn: sn, cur: make([]snapCursor, len(sn.shards)), preds: preds, last: -1}
	nsegs := 0
	for _, sh := range sn.shards {
		nsegs += len(sh.segs)
	}
	segs := make([]segCursor, nsegs)
	for s, sh := range sn.shards {
		m.cur[s] = snapCursor{v: sh, k: k, segs: segs[:len(sh.segs):len(sh.segs)]}
		segs = segs[len(sh.segs):]
	}
	if len(preds) == 0 && from > 0 {
		if !sn.seek(m.cur, from) {
			return m, false
		}
		m.idx = from
	}
	return m, true
}

func (m *matchStream) close() {
	for s := range m.cur {
		m.cur[s].close()
	}
}

// pull advances shard s's cursor to its next match that passes the row
// test, making it the shard's head.
func (m *matchStream) pull(s int) {
	c := &m.cur[s]
	for m.heads[s] = -1; m.heads[s] < 0; {
		local, ok := c.next()
		if !ok {
			return
		}
		if len(m.preds) == 0 || c.match(m.preds) {
			m.heads[s] = m.sn.global(s, local)
		}
	}
}

// next returns the next match: its index, the shard whose cursor holds it
// and its global position; ok is false past the last.
func (m *matchStream) next() (idx, s, pos int, ok bool) {
	if len(m.cur) == 1 {
		c := &m.cur[0]
		for {
			if pos, ok = c.next(); !ok {
				return 0, 0, 0, false
			}
			if len(m.preds) == 0 || c.match(m.preds) {
				m.idx++
				return m.idx - 1, 0, pos, true
			}
		}
	}
	if m.last < 0 {
		m.heads = make([]int, len(m.cur))
		for s := range m.cur {
			m.pull(s)
		}
	} else {
		m.pull(m.last)
	}
	best := -1
	for s, h := range m.heads {
		if h >= 0 && (best < 0 || h < m.heads[best]) {
			best = s
		}
	}
	if best < 0 {
		return 0, 0, 0, false
	}
	m.last = best
	m.idx++
	return m.idx - 1, best, m.heads[best], true
}

// scan runs the match stream of the prefix probe k from the from-th
// (0-based) match on into fn, as (match index, global position, the
// shard's cursor holding the match), until fn returns false. Nothing but
// the position is read unless fn asks the cursor: a value is then decoded
// through the emitting segment's cursor as a batch of one, and a row read
// through its cell cursor.
func (sn *Snapshot) scan(k *probe, from int, preds []Pred, fn func(idx, pos int, at *snapCursor) bool) {
	m, ok := sn.stream(k, from, preds)
	defer m.close()
	if !ok {
		return
	}
	for {
		idx, s, pos, ok := m.next()
		if !ok || idx >= from && !fn(idx, pos, &m.cur[s]) {
			return
		}
	}
}

// pageMatch is a match of a page being gathered: its index and position,
// the segment cursor and mark that name it, and — once the page's values
// are decoded — where its value lies in the page's bytes.
type pageMatch struct {
	idx, pos     int
	shard, seg   int
	mark, lo, hi int
}

// scanPage is scan for a page of at most size matches (size > 0), each
// handed to fn with its value and, with rows, its row (nil without a
// schema). The page is read in runs of matches: a run's positions are
// gathered first, its rows read as they pass (the cell cursors move
// forward), then each segment's values in the run are decoded in one
// batch (matchCursor.values), and only then is fn called, in order, until
// it returns false. The first run is pageRun matches, a served page's
// worth decoded in one pass; each later one is as many as runBytes holds
// at the longest value and row seen so far. So a consumer that stops
// early, as a byte budget does, stops the decoding within a run, and a
// long page of large values is held a run at a time. The match that tells
// there is more is a position only: more reports whether a match lies past
// the last one fn was handed.
func (sn *Snapshot) scanPage(k *probe, from, size int, preds []Pred, rows bool, fn func(idx, pos int, v []byte, row Row) bool) (more bool) {
	m, ok := sn.stream(k, from, preds)
	defer m.close()
	if !ok {
		return false
	}
	ncols := 0
	if rows {
		ncols = len(sn.schema)
	}
	pg := pages.Get().(*pageScratch)
	defer pg.release()
	run, longest := pageRun, 1
	for left := size; left > 0; {
		want := min(run, left)
		ms, cells := pg.ms[:0], pg.cells[:0]
		for len(ms) < want {
			idx, s, pos, ok := m.next()
			if !ok {
				break
			}
			if idx < from {
				continue
			}
			c := &m.cur[s]
			ms = append(ms, pageMatch{idx: idx, pos: pos, shard: s, seg: c.i, mark: c.segs[c.i].mark(), lo: -1})
			if ncols > 0 {
				cells = c.row(cells, ncols)
			}
		}
		ended := len(ms) < want
		left -= len(ms)
		// The values, a batch per segment: its matches' marks ascend in run
		// order.
		vals, marks, ks := pg.vals[:0], pg.marks, pg.ks
		for i := range ms {
			if ms[i].lo >= 0 {
				continue
			}
			marks, ks = marks[:0], ks[:0]
			for j := i; j < len(ms); j++ {
				if ms[j].shard == ms[i].shard && ms[j].seg == ms[i].seg {
					marks, ks = append(marks, ms[j].mark), append(ks, j)
				}
			}
			m.cur[ms[i].shard].segs[ms[i].seg].values(marks, func(k int, v []byte) {
				pm := &ms[ks[k]]
				pm.lo = len(vals)
				vals = append(vals, v...)
				pm.hi = len(vals)
			})
		}
		pg.ms, pg.cells, pg.vals, pg.marks, pg.ks = ms, cells, vals, marks, ks
		for i, pm := range ms {
			var row Row
			n := pm.hi - pm.lo
			if ncols > 0 {
				row = cells[i*ncols : (i+1)*ncols]
				for _, cell := range row {
					n += len(cell.Blob())
				}
			}
			longest = max(longest, n)
			if !fn(pm.idx, pm.pos, vals[pm.lo:pm.hi], row) {
				if i < len(ms)-1 {
					return true
				}
				left = 0 // the page ends here; whether more follow is a position away
				break
			}
		}
		if ended {
			return false
		}
		run = max(1, runBytes/longest)
	}
	_, _, _, more = m.next()
	return more
}

// pageScratch is scanPage's buffers, recycled from page to page: a served
// page would otherwise grow each of them afresh.
type pageScratch struct {
	ms        []pageMatch
	cells     []Value
	vals      []byte
	marks, ks []int
}

var pages = sync.Pool{New: func() any { return new(pageScratch) }}

// A page's runs (see scanPage): the first in matches, the later ones in
// the bytes of their values and rows.
const (
	pageRun  = 64
	runBytes = 1 << 20
)

// release returns the buffers to the pool, holding no cell's bytes and no
// value buffer a run of large values grew past what runs are sized to.
func (pg *pageScratch) release() {
	clear(pg.cells[:cap(pg.cells)]) // an earlier, longer run's cells too
	if cap(pg.vals) > 2*runBytes {
		pg.vals = nil
	}
	pages.Put(pg)
}

// seek points the cursors at match from of the merged stream, reporting
// false when there are no more than from matches. One shard's cursor
// seeks there itself. Over several, seekCut cuts the global sequence
// where exactly from matches lie before (the count before a position is a
// sum of snapCursor.rankAt at the shards' local cuts), and every cursor
// starts at its shard's image of that cut, so nothing is replayed.
func (sn *Snapshot) seek(cur []snapCursor, from int) bool {
	if len(cur) == 1 {
		cur[0].seek(from)
		return true
	}
	total := 0
	for s := range cur {
		total += cur[s].rankAt(cur[s].v.len())
	}
	if from >= total {
		return false
	}
	// Every probe at or below from is the lowest cut so far; the shards'
	// ranks at the last of them are where their streams start.
	ranks := make([]int, 2*len(cur))
	at, last := ranks[:len(cur)], ranks[len(cur):]
	seekCut(sn.n, total, from, func(pos int) (c int) {
		for s := range cur {
			last[s] = cur[s].rankAt(sn.cut(s, pos))
			c += last[s]
		}
		if c <= from {
			copy(at, last)
		}
		return c
	})
	for s := range cur {
		cur[s].seek(at[s])
	}
	return true
}

// Iterate streams the elements of positions [l, r) in order, stopping
// early if fn returns false. One shard's walk is the view's: its frozen
// generations through their streaming enumerator, its memtables in
// bounded batches under their read lock, fn always called lock-free.
// Over several shards the walk is batched: for each bounded global
// window, every shard's local subrange is streamed once, then the router
// interleaves the buffers — so per-element cost stays near the per-shard
// streaming cost instead of one root descent per element.
func (sn *Snapshot) Iterate(l, r int, fn func(pos int, s string) bool) {
	if l < 0 || r < l || r > sn.n {
		panic(fmt.Sprintf("store: Iterate(%d,%d) out of range [0,%d]", l, r, sn.n))
	}
	if len(sn.shards) == 1 {
		sn.shards[0].iterate(l, r, fn)
		return
	}
	const batch = 1 << 12
	bufs := make([][]string, len(sn.shards))
	cur := make([]int, len(sn.shards))
	for a := l; a < r; a += batch {
		b := min(a+batch, r)
		for s, sh := range sn.shards {
			lo, hi := sn.cut(s, a), sn.cut(s, b)
			bufs[s] = bufs[s][:0]
			sh.iterate(lo, hi, func(_ int, v string) bool {
				bufs[s] = append(bufs[s], v)
				return true
			})
			cur[s] = 0
		}
		for g := a; g < b; g++ {
			s := sn.r.at(uint64(g))
			if !fn(g, bufs[s][cur[s]]) {
				return
			}
			cur[s]++
		}
	}
}

// Slice returns the elements of positions [l, r) as a fresh slice,
// streamed through Iterate.
func (sn *Snapshot) Slice(l, r int) []string {
	if l < 0 || r < l || r > sn.n {
		panic(fmt.Sprintf("store: Slice(%d,%d) out of range [0,%d]", l, r, sn.n))
	}
	out := make([]string, 0, r-l)
	sn.Iterate(l, r, func(_ int, s string) bool {
		out = append(out, s)
		return true
	})
	return out
}

// Schema returns the snapshot's column schema (nil when the store has
// no columns). The returned slice must not be modified.
func (sn *Snapshot) Schema() []ColumnSpec { return sn.schema }

// cellAt reads the cell of column col at global position pos through the
// column reader of the segment holding it.
func (sn *Snapshot) cellAt(pos, col int) Value {
	s, local := sn.locate(pos)
	if c, rel := sn.shards[s].cols(local); c != nil {
		return c.colValue(col, rel)
	}
	return Value{}
}

// Row returns the payload row at position pos (one cell per schema
// column; nil when the store has no schema). Payloads ride to the same
// shard as their value, so one locate resolves the whole row. Cells
// written before the schema was pinned, or never filled, are NULL. Panics
// if pos is out of range, like Access.
func (sn *Snapshot) Row(pos int) Row {
	if pos < 0 || pos >= sn.n {
		panic(fmt.Sprintf("store: Row(%d) out of range [0,%d)", pos, sn.n))
	}
	if len(sn.schema) == 0 {
		return nil
	}
	s, local := sn.locate(pos)
	c, rel := sn.shards[s].cols(local)
	row := make(Row, len(sn.schema))
	if c != nil {
		for j := range row {
			row[j] = c.colValue(j, rel)
		}
	}
	return row
}

// CountWhere counts positions whose value has byte prefix prefix (""
// matches everything) AND whose row satisfies every predicate — the §5
// range-query surface intersected with numeric column filters. A single
// predicate with no prefix is answered purely by rank arithmetic: per
// segment, the presence bitvector maps the span onto present indices
// and the column's wavelet planes count values in the predicate's
// range — no value is ever materialized or even decoded. Other shapes
// walk each shard's prefix match stream (the empty prefix's streams every
// position) and test its cells through one cell cursor a segment, read
// forward. NULL cells match no predicate.
func (sn *Snapshot) CountWhere(prefix string, preds ...Pred) (int, error) {
	if err := validatePreds(sn.schema, preds); err != nil {
		return 0, err
	}
	if len(preds) == 0 {
		if prefix == "" {
			return sn.n, nil
		}
		return sn.CountPrefix(prefix), nil
	}
	count := 0
	if prefix == "" && len(preds) == 1 {
		for _, sh := range sn.shards {
			count += sh.countPred(preds[0])
		}
		return count, nil
	}
	// Counts add up across shards, so each shard is counted as a one-shard
	// view: its own stream, with no router work.
	k := newProbe(prefix, true)
	for s, sh := range sn.shards {
		one := Snapshot{n: sh.len(), shards: sn.shards[s : s+1]}
		one.scan(k, 0, preds, func(int, int, *snapCursor) bool {
			count++
			return true
		})
	}
	return count, nil
}

// IterateWhere streams the positions matching prefix AND preds in
// ascending order, starting from the from-th (0-based) match; fn
// receives the match index and position and returns false to stop.
// Unlike IteratePrefix, earlier matches cannot be skipped by rank
// arithmetic (the predicate intersection has no precomputed counts), so
// resuming at from costs a walk over the earlier matches' candidates.
func (sn *Snapshot) IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error {
	_, err := sn.where(prefix, from, 0, preds, false, func(idx, pos int, _ []byte, _ Row) bool { return fn(idx, pos) })
	return err
}

// ScanWhere is IterateWhere that also hands fn each match's value and
// row, as ScanPrefix hands values, with its max: v and row (one cell per
// schema column, nil without a schema) are valid only during that call of
// fn, and a page (max > 0) decodes its values together, reports in more
// whether a match lies past it, and reads nothing of that match but its
// position and the cells the predicates test. Candidates come from the
// positions-only prefix cursors (the empty prefix's yield every
// position), their cells — the tested ones and then a match's row —
// through one cell cursor a segment, read forward.
func (sn *Snapshot) ScanWhere(prefix string, from, max int, preds []Pred, fn func(idx, pos int, v []byte, row Row) bool) (more bool, err error) {
	return sn.where(prefix, from, max, preds, true, fn)
}

// where is IterateWhere and ScanWhere: the prefix's match stream (the
// empty prefix's holds every position) filtered by the row test; with
// vals, fn is handed each match's value and row.
func (sn *Snapshot) where(prefix string, from, max int, preds []Pred, vals bool, fn func(idx, pos int, v []byte, row Row) bool) (more bool, err error) {
	if from < 0 {
		return false, fmt.Errorf("store: IterateWhere from %d negative", from)
	}
	if err := validatePreds(sn.schema, preds); err != nil {
		return false, err
	}
	k := newProbe(prefix, true)
	if vals && max > 0 {
		return sn.scanPage(k, from, max, preds, true, fn), nil
	}
	var row Row
	if vals && len(sn.schema) > 0 {
		row = make(Row, len(sn.schema))
	}
	var buf []byte
	sn.scan(k, from, preds, func(idx, pos int, at *snapCursor) bool {
		if vals {
			buf = at.value(buf[:0])
			row = at.row(row[:0], len(row))
		}
		return fn(idx, pos, buf, row)
	})
	return false, nil
}
