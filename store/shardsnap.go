package store

import (
	"fmt"

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
// many: the prefix merge sought to idx and stopped at its first match.
func (sn *ShardedSnapshot) SelectPrefix(p string, idx int) (at int, ok bool) {
	if idx < 0 {
		return 0, false
	}
	sn.scan(newProbe(p, true), idx, nil, func(_, pos int, _ valFn) bool {
		at, ok = pos, true
		return false
	})
	return at, ok
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

// scan is the sharded view's match stream (see matchView), seek then k-way
// merge: the matches of the prefix probe k whose rows pass preds, from the
// from-th on, as (match index, global position, value on demand).
//
// The seek cuts the global sequence where exactly from matches lie before
// (seekCut; the count before a position is a sum of snapCursor.rankAt) and
// points every shard's cursor at the cut's local image, so nothing is
// replayed. With preds nothing is sought — the intersection has no counts
// — and survivors before from are merged past, their values never read.
//
// The merge holds one head per shard — local position from the shard's
// cursor, global from the router's selectShard — emits the smallest and
// advances only the shard it came from. The row test runs on the shard,
// before a candidate becomes a head, and a value is decoded, through the
// emitting cursor, only when fn asks: a page of m matches pulls at most
// m + shards and decodes m.
func (sn *ShardedSnapshot) scan(k *probe, from int, preds []Pred, fn func(idx, pos int, val valFn) bool) {
	filter := len(preds) > 0
	cur := make([]snapCursor, len(sn.shards))
	nsegs := 0
	for _, sh := range sn.shards {
		nsegs += len(sh.segs)
	}
	segs := make([]segCursor, nsegs)
	for s, sh := range sn.shards {
		cur[s] = snapCursor{sn: sh, k: k, segs: segs[:len(sh.segs):len(sh.segs)]}
		segs = segs[len(sh.segs):]
	}
	defer func() {
		for s := range cur {
			cur[s].close()
		}
	}()
	idx := 0
	if !filter && from > 0 {
		total := 0
		for s := range cur {
			total += cur[s].rankAt(cur[s].sn.Len())
		}
		if from >= total {
			return
		}
		// Every probe at or below from is the lowest cut so far; the shards'
		// ranks at the last of them are where their streams start.
		ranks := make([]int, 2*len(cur))
		at, last := ranks[:len(cur)], ranks[len(cur):]
		seekCut(sn.n, total, from, func(pos int) (c int) {
			for s := range cur {
				last[s] = cur[s].rankAt(sn.r.rank(s, uint64(pos)))
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
		idx = from
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
				heads[s] = sn.r.selectShard(s, local)
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

// IteratePrefix streams the global positions of elements with byte
// prefix p, in ascending order, starting from the from-th (0-based)
// match; fn receives the match index and global position and returns
// false to stop. The walk is the seek and k-way merge of scan: the from
// offset is skipped by the seek rather than replayed, and a stream of m
// matches costs m monotone cursor steps and router selects — no shard
// select or descent per match. It panics if from is negative.
func (sn *ShardedSnapshot) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	sn.scan(prefixProbe(p, from), from, nil, func(idx, pos int, _ valFn) bool { return fn(idx, pos) })
}

// ScanPrefix is IteratePrefix that also hands fn each match's value,
// decoded through the cursor of the shard it was emitted from: v is the
// value's bytes, valid only during that call of fn (see
// Snapshot.ScanPrefix).
func (sn *ShardedSnapshot) ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool) {
	sn.scan(prefixProbe(p, from), from, nil, withValue(fn))
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

// matchAt tests the row at a global position on the shard that holds it.
func (sn *ShardedSnapshot) matchAt(pos int, preds []Pred) bool {
	s, local := sn.r.locate(uint64(pos))
	return sn.shards[s].matchAt(local, preds)
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
	return where(sn, prefix, from, preds, func(idx, pos int, _ valFn) bool { return fn(idx, pos) })
}

// ScanWhere is IterateWhere that also hands fn each match's value; see
// Snapshot.ScanWhere.
func (sn *ShardedSnapshot) ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error {
	return where(sn, prefix, from, preds, withValue(fn))
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
