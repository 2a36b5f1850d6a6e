package store

import (
	"fmt"
	"sort"

	wavelettrie "repro"
)

// ShardedSnapshot is an immutable, consistent view of a ShardedStore's
// global sequence: one per-shard Snapshot pinned and clamped to the
// shard's length at the cross-shard watermark, stitched into global
// append order by the router. Every operation reduces to per-shard
// operations plus router arithmetic:
//
//	Access(g)        = shard[at(g)].Access(rank(at(g), g))
//	Rank(v, pos)     = shard[pick(v)].Rank(v, rank(pick(v), pos))
//	Select(v, i)     = selectShard(pick(v), shard[pick(v)].Select(v, i))
//	RankPrefix(p, ·) = Σ_s shard[s].RankPrefix(p, rank(s, ·))
//
// Point lookups on whole values touch exactly one shard — the
// partitioner contract guarantees every occurrence of v lives on
// pick(v). Prefix queries fan out to all shards, since values sharing a
// prefix hash apart. All operations are safe for concurrent use and
// keep answering the same way during later appends, flushes and
// compactions on any shard.
type ShardedSnapshot struct {
	r      *router
	n      int // pinned watermark
	part   Partitioner
	shards []*Snapshot  // each shard's view, cut at the watermark
	base   []*Snapshot  // the shard views the cuts were made from
	schema []ColumnSpec // the shards' shared column schema
}

// ShardedSnapshot serves the same query surface as Snapshot.
var _ wavelettrie.StringIndex = (*ShardedSnapshot)(nil)

// Len returns the number of elements visible in this snapshot.
func (sn *ShardedSnapshot) Len() int { return sn.n }

// AlphabetSize returns the number of distinct strings — the sum of the
// per-shard counts (disjoint by the partitioner contract), each derived
// and remembered by its shard's view; see Snapshot.AlphabetSize for the
// cost and for how the count may lead the visible sequence.
func (sn *ShardedSnapshot) AlphabetSize() int {
	total := 0
	for _, sh := range sn.shards {
		total += sh.AlphabetSize()
	}
	return total
}

// ContentFingerprint returns the 64-bit content hash of the snapshot's
// visible global sequence; see Snapshot.ContentFingerprint. It compares
// across stores and across sharded/plain layouts — any two stores
// holding the same sequence agree on it.
func (sn *ShardedSnapshot) ContentFingerprint() uint64 {
	return contentFP(sn.n, len(sn.schema), sn.Iterate, sn.cellAt)
}

// Height returns the maximum trie height over all shards' segments.
func (sn *ShardedSnapshot) Height() int {
	h := 0
	for _, sh := range sn.shards {
		if sh := sh.Height(); sh > h {
			h = sh
		}
	}
	return h
}

// SizeBits returns the summed in-memory footprint of the per-shard
// views plus the router.
func (sn *ShardedSnapshot) SizeBits() int {
	total := sn.r.sizeBits()
	for _, sh := range sn.shards {
		total += sh.SizeBits()
	}
	return total
}

// pick routes v to its shard, panicking on a broken custom partitioner
// (reads have no error channel; the same breakage fails Append loudly).
func (sn *ShardedSnapshot) pick(v string) int {
	s, err := pickShard(sn.part, v, len(sn.shards))
	if err != nil {
		panic(err)
	}
	return s
}

// Access returns the string at global position pos. It panics if pos is
// out of range, like a slice access. The router resolves the owning
// shard and the local position in a single locate pass.
func (sn *ShardedSnapshot) Access(pos int) string {
	if pos < 0 || pos >= sn.n {
		panic(fmt.Sprintf("store: Access(%d) out of range [0,%d)", pos, sn.n))
	}
	s, local := sn.r.locate(uint64(pos))
	return sn.shards[s].Access(local)
}

func (sn *ShardedSnapshot) checkPos(op string, pos int) {
	if pos < 0 || pos > sn.n {
		panic(fmt.Sprintf("store: %s position %d out of range [0,%d]", op, pos, sn.n))
	}
}

// Rank counts occurrences of v in global positions [0, pos); pos may
// equal Len. Exactly one shard is probed: the router translates the
// global cut to that shard's local cut.
func (sn *ShardedSnapshot) Rank(v string, pos int) int {
	sn.checkPos("Rank", pos)
	s := sn.pick(v)
	return sn.shards[s].rank(newProbe(v, false), sn.r.rank(s, uint64(pos)))
}

// Count returns the total number of occurrences of v.
func (sn *ShardedSnapshot) Count(v string) int { return sn.Rank(v, sn.n) }

// Select returns the global position of the idx-th (0-based) occurrence
// of v, with ok=false when v occurs fewer than idx+1 times: the owning
// shard resolves the local position, the router maps it back to global.
func (sn *ShardedSnapshot) Select(v string, idx int) (int, bool) {
	s := sn.pick(v)
	local, ok := sn.shards[s].sel(newProbe(v, false), idx)
	if !ok {
		return 0, false
	}
	return sn.r.selectShard(s, local), true
}

// RankPrefix counts elements in [0, pos) having byte prefix p — the sum
// over all shards at their local cuts (a prefix's values hash apart).
func (sn *ShardedSnapshot) RankPrefix(p string, pos int) int {
	sn.checkPos("RankPrefix", pos)
	return sn.rankPrefix(newProbe(p, true), pos)
}

// rankPrefix sums the shards' prefix ranks at their local cuts of the
// global position pos; one probe serves every shard and generation.
func (sn *ShardedSnapshot) rankPrefix(k *probe, pos int) int {
	total := 0
	for s, sh := range sn.shards {
		total += sh.rank(k, sn.r.rank(s, uint64(pos)))
	}
	return total
}

// CountPrefix returns the total number of elements with byte prefix p.
func (sn *ShardedSnapshot) CountPrefix(p string) int { return sn.RankPrefix(p, sn.n) }

// SelectPrefix returns the global position of the idx-th (0-based)
// element with byte prefix p, with ok=false when there are not that
// many. It is the prefix merge's seek run to completion: prefixLand
// terminates exactly on the idx-th match, so the lookup needs no
// per-shard select and no global binary search over the full sequence
// — the degenerate k-way merge whose streams never produce a head.
func (sn *ShardedSnapshot) SelectPrefix(p string, idx int) (int, bool) {
	if idx < 0 {
		return 0, false
	}
	return sn.prefixLand(newProbe(p, true), idx)
}

// prefixLand finds the global position of the idx-th prefix match, with
// found=false when there are fewer than idx+1 matches: a chunk-level
// binary search over the router's sealed boundaries (the frozen prefix
// sums hand every shard its local cut at a boundary for free), then a
// position-level binary search inside the landing chunk, where router
// rank maps any global position to per-shard cuts — O(1) in the frozen
// region, a bounded slot scan in the tail. Total cost is
// O(shards · log n) shard rank probes, confined to one chunk after the
// boundary phase.
func (sn *ShardedSnapshot) prefixLand(k *probe, idx int) (at int, found bool) {
	if sn.n == 0 {
		return 0, false
	}
	v := sn.r.view.Load()
	bmax := min(len(v.cum)-1, sn.n>>routerChunkShift)
	countAt := func(b int) int {
		total := 0
		for s, sh := range sn.shards {
			total += sh.rank(k, int(v.cum[b][s]))
		}
		return total
	}
	b := sort.Search(bmax+1, func(b int) bool { return countAt(b) > idx }) - 1
	lo, hi := b<<routerChunkShift, min(sn.n, (b+1)<<routerChunkShift)
	countPos := func(pos int) int { return sn.rankPrefix(k, pos) }
	// Smallest d with more than idx matches before lo+d, minus one, is
	// the match itself; countAt(b) <= idx rules out d == 0. The match
	// can also sit at hi-1 with every in-range probe false — one probe
	// at hi distinguishes that from idx being past the last match.
	d := sort.Search(hi-lo, func(d int) bool { return countPos(lo+d) > idx })
	if d == hi-lo {
		if countPos(hi) <= idx {
			return 0, false
		}
		return hi - 1, true
	}
	return lo + d - 1, true
}

// seekPrefix positions a prefix merge exactly at the idx-th match: it
// lands there with prefixLand, then derives each shard's local match
// cursor at the landing position and the number of matches before it
// (== idx whenever the match exists; when it does not, the cursors
// exhaust every stream and the merge yields nothing). The merge resumes
// with zero replay — no skipped matches are re-derived.
func (sn *ShardedSnapshot) seekPrefix(k *probe, idx int) (j []int, before int) {
	cut := sn.n
	if at, found := sn.prefixLand(k, idx); found {
		cut = at
	}
	j = make([]int, len(sn.shards))
	for s, sh := range sn.shards {
		j[s] = sh.rank(k, sn.r.rank(s, uint64(cut)))
		before += j[s]
	}
	return j, before
}

// shardStream is one shard's side of the prefix merge: the shard's own
// prefix cursor (Snapshot.scan), pulled a batch at a time into buf, with
// local positions already mapped to global ones and the values' bytes
// laid end to end in vals. keep, when non-nil, drops a candidate before it
// is buffered; wantVals says whether values are wanted at all. Batches
// double from a page's worth, so a merge that stops after one page has not
// enumerated a shard far past it.
type shardStream struct {
	next  int // local match index the next refill starts at
	batch int
	buf   []shardMatch
	vals  []byte
	i     int  // buf[i] is the stream's head
	more  bool // the last refill stopped on a full batch
}

type shardMatch struct {
	pos int // global
	end int // the value is vals[previous match's end : end]
}

// head returns the stream's current match: its global position and value.
func (st *shardStream) head() (pos int, val []byte) {
	lo := 0
	if st.i > 0 {
		lo = st.buf[st.i-1].end
	}
	return st.buf[st.i].pos, st.vals[lo:st.buf[st.i].end]
}

// refill pulls shard s's next batch of matches.
func (sn *ShardedSnapshot) refill(st *shardStream, k *probe, s int, keep func(s, local int) bool, wantVals bool) {
	st.buf, st.vals, st.i, st.more = st.buf[:0], st.vals[:0], 0, false
	st.batch = min(max(2*st.batch, 32), 1024)
	sn.shards[s].scan(k, st.next, func(j, local int, val valFn) bool {
		st.next = j + 1
		if keep != nil && !keep(s, local) {
			return true
		}
		if wantVals {
			st.vals = val(st.vals)
		}
		st.buf = append(st.buf, shardMatch{pos: sn.r.selectShard(s, local), end: len(st.vals)})
		st.more = len(st.buf) == st.batch
		return !st.more
	})
}

// merge is the k-way merge behind every sharded prefix enumeration: each
// shard streams its local matches from index j[s] on, the router's
// selectShard maps them to global positions, and the smallest head wins
// each round. fn returns false to stop; the value it is handed is valid
// only during that call.
func (sn *ShardedSnapshot) merge(k *probe, j []int, keep func(s, local int) bool, wantVals bool, fn func(pos int, val []byte) bool) {
	streams := make([]shardStream, len(sn.shards))
	for s := range streams {
		streams[s].next = j[s]
		sn.refill(&streams[s], k, s, keep, wantVals)
	}
	for {
		best := -1
		for s := range streams {
			if st := &streams[s]; st.i < len(st.buf) && (best < 0 || st.buf[st.i].pos < streams[best].buf[streams[best].i].pos) {
				best = s
			}
		}
		if best < 0 {
			return
		}
		st := &streams[best]
		if !fn(st.head()) {
			return
		}
		if st.i++; st.i == len(st.buf) && st.more {
			sn.refill(st, k, best, keep, wantVals)
		}
	}
}

// IteratePrefix streams the global positions of elements with byte
// prefix p, in ascending order, starting from the from-th (0-based)
// match; fn receives the match index and global position and returns
// false to stop. The walk is a k-way merge over per-shard streams: each
// shard runs its own prefix cursor from the local index seekPrefix
// derived, in batches, so a stream of m matches costs m monotone cursor
// steps and router selects — no shard select or descent per match — and
// the from offset is skipped by the exact seek rather than replayed. It
// panics if from is negative.
func (sn *ShardedSnapshot) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	sn.scanPrefix(p, from, false, func(idx, pos int, _ []byte) bool { return fn(idx, pos) })
}

// ScanPrefix is IteratePrefix that also hands fn each match's value,
// streamed from the shards' cursors: v is the value's bytes, valid only
// during that call of fn (see Snapshot.ScanPrefix).
func (sn *ShardedSnapshot) ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool) {
	sn.scanPrefix(p, from, true, fn)
}

func (sn *ShardedSnapshot) scanPrefix(p string, from int, vals bool, fn func(idx, pos int, v []byte) bool) {
	if from < 0 {
		panic(fmt.Sprintf("store: prefix scan from %d negative", from))
	}
	k := newProbe(p, true)
	j, idx := sn.seekPrefix(k, from)
	sn.merge(k, j, nil, vals, func(pos int, v []byte) bool {
		idx++
		return fn(idx-1, pos, v)
	})
}

// Schema returns the shards' shared column schema (nil when the store
// has no columns). The returned slice must not be modified.
func (sn *ShardedSnapshot) Schema() []ColumnSpec { return sn.schema }

// cellAt reads one cell at a global position: the router resolves the
// owning shard and local position, the shard view reads the cell.
func (sn *ShardedSnapshot) cellAt(pos, col int) Value {
	s, local := sn.r.locate(uint64(pos))
	return sn.shards[s].cellAt(local, col)
}

// Row returns the payload row at global position pos, served by the
// owning shard — payloads ride to the same shard as their value, so one
// locate resolves the whole row. Panics if pos is out of range.
func (sn *ShardedSnapshot) Row(pos int) Row {
	if pos < 0 || pos >= sn.n {
		panic(fmt.Sprintf("store: Row(%d) out of range [0,%d)", pos, sn.n))
	}
	s, local := sn.r.locate(uint64(pos))
	return sn.shards[s].Row(local)
}

// CountWhere counts global positions whose value has byte prefix prefix
// AND whose row satisfies every predicate. Global positions partition
// across shards and both the prefix and the predicates are per-position,
// so the count is the sum of per-shard counts — each shard answering
// over its clamped view with the same rank-arithmetic fast path a plain
// Snapshot uses; see Snapshot.CountWhere.
func (sn *ShardedSnapshot) CountWhere(prefix string, preds ...Pred) (int, error) {
	if err := validatePreds(sn.schema, preds); err != nil {
		return 0, err
	}
	total := 0
	for _, sh := range sn.shards {
		c, err := sh.CountWhere(prefix, preds...)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// IterateWhere streams the global positions matching prefix AND preds
// in ascending order from the from-th (0-based) match; fn receives the
// match index and global position and returns false to stop. With a
// prefix, every shard tests its own prefix candidates against the
// predicates and the k-way merge interleaves the survivors. See
// Snapshot.IterateWhere for the from-resume cost caveat.
func (sn *ShardedSnapshot) IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error {
	return sn.where(prefix, from, preds, false, func(idx, pos int, _ []byte) bool { return fn(idx, pos) })
}

// ScanWhere is IterateWhere that also hands fn each match's value; see
// Snapshot.ScanWhere.
func (sn *ShardedSnapshot) ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error {
	return sn.where(prefix, from, preds, true, fn)
}

func (sn *ShardedSnapshot) where(prefix string, from int, preds []Pred, vals bool, fn func(idx, pos int, v []byte) bool) error {
	if from < 0 {
		return fmt.Errorf("store: IterateWhere from %d negative", from)
	}
	if err := validatePreds(sn.schema, preds); err != nil {
		return err
	}
	if len(preds) == 0 && prefix != "" {
		sn.scanPrefix(prefix, from, vals, fn)
		return nil
	}
	keep := func(s, local int) bool { return sn.shards[s].matchAt(local, preds) }
	idx := 0
	if prefix == "" {
		// No prefix node to stream from: a surviving position's value is
		// a point read on its shard.
		var v []byte
		for pos := 0; pos < sn.n; pos++ {
			s, local := sn.r.locate(uint64(pos))
			if !keep(s, local) {
				continue
			}
			if idx >= from {
				if vals {
					v = append(v[:0], sn.shards[s].Access(local)...)
				}
				if !fn(idx, pos, v) {
					break
				}
			}
			idx++
		}
		return nil
	}
	// Survivors before from are merged past, not sought: their values
	// are wanted only once idx reaches it, which the streams cannot know,
	// so a deep from pays for them (the caveat IterateWhere documents).
	sn.merge(newProbe(prefix, true), make([]int, len(sn.shards)), keep, vals, func(pos int, v []byte) bool {
		idx++
		return idx <= from || fn(idx-1, pos, v)
	})
	return nil
}

// Iterate streams the elements of global positions [l, r) in order,
// stopping early if fn returns false. The walk is batched: for each
// bounded global window, every shard's local subrange is streamed once
// through its own iterator, then the router interleaves the buffers —
// so per-element cost stays near the per-shard streaming cost instead
// of one root descent per element.
func (sn *ShardedSnapshot) Iterate(l, r int, fn func(pos int, s string) bool) {
	if l < 0 || r < l || r > sn.n {
		panic(fmt.Sprintf("store: Iterate(%d,%d) out of range [0,%d]", l, r, sn.n))
	}
	const batch = 1 << 12
	bufs := make([][]string, len(sn.shards))
	cur := make([]int, len(sn.shards))
	for a := l; a < r; a += batch {
		b := min(a+batch, r)
		for s, sh := range sn.shards {
			lo, hi := sn.r.rank(s, uint64(a)), sn.r.rank(s, uint64(b))
			bufs[s] = bufs[s][:0]
			if lo < hi {
				sh.Iterate(lo, hi, func(_ int, v string) bool {
					bufs[s] = append(bufs[s], v)
					return true
				})
			}
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

// Slice returns the elements of global positions [l, r) as a fresh
// slice, streamed through Iterate.
func (sn *ShardedSnapshot) Slice(l, r int) []string {
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

// MarshalBinary exports the snapshot's whole global sequence as a
// single Frozen index in the unified persistence container — loadable
// with wavelettrie.LoadFrozen (or Load) anywhere, independent of the
// store directory. Cost is O(n) time, but the sequence is streamed
// through the freeze builder (two Iterate passes over the pinned
// snapshot), never materialized as a []string.
func (sn *ShardedSnapshot) MarshalBinary() ([]byte, error) {
	f, err := wavelettrie.FreezeIterate(func(yield func(s string) bool) {
		sn.Iterate(0, sn.n, func(_ int, v string) bool { return yield(v) })
	})
	if err != nil {
		return nil, err
	}
	return f.MarshalBinary()
}
