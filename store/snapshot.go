package store

import (
	"fmt"

	wavelettrie "repro"
)

// Snapshot is an immutable, consistent view of a store's sequence at the
// moment Snapshot() was called, for a Store and a ShardedStore alike: one
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
// A plain store's view, and a one-shard ShardedStore's, has one shard and
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
	base   []*shardView // a ShardedStore's: the shards' pinned views the cuts were made from
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
	sn.scan(newProbe(p, true), idx, nil, func(_, pos int, _ valFn) bool {
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
	sn.scan(prefixProbe(p, from), from, nil, func(idx, pos int, _ valFn) bool { return fn(idx, pos) })
}

// ScanPrefix is IteratePrefix that also hands fn each match's value,
// streamed from the same cursor — no Access per match, and no string: v
// is the value's bytes in a buffer the next match overwrites, valid only
// during that call of fn.
func (sn *Snapshot) ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool) {
	sn.scan(prefixProbe(p, from), from, nil, withValue(fn))
}

// prefixProbe is the probe of an IteratePrefix or ScanPrefix from the
// from-th match on.
func prefixProbe(p string, from int) *probe {
	if from < 0 {
		panic(fmt.Sprintf("store: prefix scan from %d negative", from))
	}
	return newProbe(p, true)
}

// withValue adapts a value-taking scan callback to the scan seam: every
// match's value is read into one buffer, reused from match to match.
func withValue(fn func(idx, pos int, v []byte) bool) func(idx, pos int, val valFn) bool {
	var buf []byte
	return func(idx, pos int, val valFn) bool {
		buf = val(buf[:0])
		return fn(idx, pos, buf)
	}
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

// scan is the view's match stream: the matches of the prefix probe k
// whose rows pass preds, from the from-th (0-based) on, as (match index,
// global position, value on demand); fn returns false to stop. Without
// preds the from offset is sought (seek), so nothing before it is
// replayed; with them nothing is — the intersection has no counts — and
// the survivors before from are walked past, their values never read.
//
// Each shard's matches come from one snapCursor. With one shard that
// stream is the view's. Over several, a k-way merge holds one head per
// shard — local position from the shard's cursor, global from the
// router's selectShard — emits the smallest and advances only the shard
// it came from. Either way the row test runs on the shard, before a
// candidate is emitted or becomes a head, and a value is decoded, through
// the emitting cursor, only when fn asks: a page of m matches pulls at
// most m + shards and decodes m.
func (sn *Snapshot) scan(k *probe, from int, preds []Pred, fn func(idx, pos int, val valFn) bool) {
	filter := len(preds) > 0
	cur := make([]snapCursor, len(sn.shards))
	nsegs := 0
	for _, sh := range sn.shards {
		nsegs += len(sh.segs)
	}
	segs := make([]segCursor, nsegs)
	for s, sh := range sn.shards {
		cur[s] = snapCursor{v: sh, k: k, segs: segs[:len(sh.segs):len(sh.segs)]}
		segs = segs[len(sh.segs):]
	}
	defer func() {
		for s := range cur {
			cur[s].close()
		}
	}()
	idx := 0
	if !filter && from > 0 {
		if !sn.seek(cur, from) {
			return
		}
		idx = from
	}
	if len(cur) == 1 {
		c, sh := &cur[0], sn.shards[0]
		val := c.value
		for {
			pos, ok := c.next()
			if !ok {
				return
			}
			if filter && !sh.matchAt(pos, preds) {
				continue
			}
			if idx >= from && !fn(idx, pos, val) {
				return
			}
			idx++
		}
	}
	// heads[s] is the global position of shard s's current match, negative
	// when it has none left.
	heads := make([]int, len(cur))
	pull := func(s int) {
		for heads[s] = -1; heads[s] < 0; {
			local, ok := cur[s].next()
			if !ok {
				return
			}
			if !filter || sn.shards[s].matchAt(local, preds) {
				heads[s] = sn.global(s, local)
			}
		}
	}
	for s := range cur {
		pull(s)
	}
	best := 0
	val := func(dst []byte) []byte { return cur[best].value(dst) }
	for {
		best = -1
		for s, h := range heads {
			if h >= 0 && (best < 0 || h < heads[best]) {
				best = s
			}
		}
		if idx++; best < 0 || idx > from && !fn(idx-1, heads[best], val) {
			return
		}
		pull(best)
	}
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

// matchAt tests the row at global position pos against pre-validated
// preds, on the shard that holds it.
func (sn *Snapshot) matchAt(pos int, preds []Pred) bool {
	s, local := sn.locate(pos)
	return sn.shards[s].matchAt(local, preds)
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
// walk the narrower side (each shard's prefix match stream, or every
// position of every shard) and test cells individually. NULL cells match
// no predicate.
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
	switch {
	case prefix != "":
		// Counts add up across shards, so each shard is counted as a
		// one-shard view: its own stream, with no router work.
		k := newProbe(prefix, true)
		for s, sh := range sn.shards {
			one := Snapshot{n: sh.len(), shards: sn.shards[s : s+1]}
			one.scan(k, 0, preds, func(int, int, valFn) bool {
				count++
				return true
			})
		}
	case len(preds) == 1:
		for _, sh := range sn.shards {
			count += sh.countPred(preds[0])
		}
	default:
		for _, sh := range sn.shards {
			for pos := 0; pos < sh.len(); pos++ {
				if sh.matchAt(pos, preds) {
					count++
				}
			}
		}
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
	return sn.where(prefix, from, preds, func(idx, pos int, _ valFn) bool { return fn(idx, pos) })
}

// ScanWhere is IterateWhere that also hands fn each match's value, as
// ScanPrefix does: v is valid only during that call of fn. With a prefix,
// candidates come from the positions-only prefix cursors and a value is
// read only for a candidate that passed every predicate and lies at or
// past from.
func (sn *Snapshot) ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error {
	return sn.where(prefix, from, preds, withValue(fn))
}

// where is IterateWhere and ScanWhere: the prefix's match stream filtered
// by the row test, or — with no prefix to stream from — every position put
// to the test.
func (sn *Snapshot) where(prefix string, from int, preds []Pred, fn func(idx, pos int, val valFn) bool) error {
	if from < 0 {
		return fmt.Errorf("store: IterateWhere from %d negative", from)
	}
	if err := validatePreds(sn.schema, preds); err != nil {
		return err
	}
	if prefix != "" {
		sn.scan(newProbe(prefix, true), from, preds, fn)
		return nil
	}
	// No prefix node to stream from: a surviving position's value is a
	// point read.
	pos := 0
	val := func(dst []byte) []byte { return append(dst, sn.Access(pos)...) }
	for idx := 0; pos < sn.n; pos++ {
		if !sn.matchAt(pos, preds) {
			continue
		}
		if idx >= from && !fn(idx, pos, val) {
			break
		}
		idx++
	}
	return nil
}
