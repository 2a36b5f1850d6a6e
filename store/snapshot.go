package store

import (
	"fmt"
	"sort"
	"sync"

	wavelettrie "repro"
)

// segment is one contiguous slab of the logical sequence — a frozen
// generation or a bounded memtable view. The merged-read planner below
// stitches per-segment answers with offset and rank arithmetic. Keyed
// reads take the request's probe: whether it matches whole values or a
// byte prefix is the probe's own property.
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

// valFn appends a scan match's value to dst and returns the extended
// slice, so a consumer that only copies the bytes on never makes a string
// of them. It reads the value when called — a positions-only consumer never
// pays for it — and is valid only during the call of fn it was handed to.
type valFn = func(dst []byte) []byte

// snapSeg pairs a segment with, when the store has a column schema, the
// segment's column reader.
type snapSeg struct {
	segment
	cols colReader
}

// Snapshot is an immutable, consistent view of the store at the moment
// Snapshot() was called: the generation list (including any memtable
// sealed but not yet persisted) plus the live memtable clamped to its
// length at capture time. All operations are safe for concurrent use and
// keep answering the same way during later appends, flushes and
// compactions — readers are isolated from writers. One Snapshot is shared
// by every reader of the same store state (see Store.Snapshot), so nothing
// a query does may write to it; the AlphabetSize memo is the one exception.
type Snapshot struct {
	segs   []snapSeg
	offs   []int        // offs[i] = start of segs[i]; offs[len(segs)] = Len
	schema []ColumnSpec // the store's pinned column schema (possibly empty)

	// What Store.Snapshot recognises its current view by: the state it was
	// built from and the live memtable length it clamps to. Nil and zero on
	// a prefixed cut.
	state  *storeState
	memLen int64

	// AlphabetSize's answer, derived by the first call.
	distinctOnce sync.Once
	distinct     int
	distinctErr  error
}

func newSnapshot(segs []snapSeg) *Snapshot {
	offs := make([]int, len(segs)+1)
	for i, seg := range segs {
		offs[i+1] = offs[i] + seg.Len()
	}
	return &Snapshot{segs: segs, offs: offs}
}

// Len returns the number of elements visible in this snapshot.
func (sn *Snapshot) Len() int { return sn.offs[len(sn.segs)] }

// AlphabetSize returns the number of distinct strings in the snapshot's
// segments. Nothing maintains the count: the first call derives it — the
// leaves of the union of the segments' tries, a walk over their shapes
// that compares labels and reads no bitvector and no element, so it costs
// the tries' node counts (5.5 ms for eight 16 Ki-value generations and a
// memtable; O(1) when one segment holds everything) — and the snapshot
// remembers it. A memtable is walked under its read lock, whole:
// under concurrent appends the count takes the live memtable as it stands
// at that first call, not clamped to the snapshot's prefix, so it may lead
// the visible sequence by later appends; it is exact when quiescent. Like
// any keyed read, it panics on a generation damaged since its checksum
// was verified.
func (sn *Snapshot) AlphabetSize() int {
	sn.distinctOnce.Do(func() {
		var u alphabetUnion
		for _, seg := range sn.segs {
			seg.alphabet(&u)
		}
		sn.distinct, sn.distinctErr = u.size()
	})
	if sn.distinctErr != nil {
		panic("store: AlphabetSize: " + sn.distinctErr.Error())
	}
	return sn.distinct
}

// alphabetUnion collects the tries behind a snapshot's segments.
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

// Height returns the maximum trie height over the snapshot's segments —
// a lower bound on the height of a single trie over the merged sequence.
func (sn *Snapshot) Height() int {
	h := 0
	for _, seg := range sn.segs {
		if sh := seg.Height(); sh > h {
			h = sh
		}
	}
	return h
}

// SizeBits returns the summed in-memory footprint of the snapshot's
// segments.
func (sn *Snapshot) SizeBits() int {
	total := 0
	for _, seg := range sn.segs {
		total += seg.SizeBits()
	}
	return total
}

// locate returns the segment containing position pos and pos relative to
// its start: a binary search over the (few) segment offsets.
func (sn *Snapshot) locate(pos int) (int, int) {
	i := sort.SearchInts(sn.offs, pos+1) - 1
	return i, pos - sn.offs[i]
}

// ContentFingerprint returns a 64-bit hash of the snapshot's visible
// sequence contents — FNV-1a over every value, length-delimited, and,
// when the store has a column schema, over every position's payload row
// (each cell mixed as its kind tag then its value). It depends only on
// the values, rows and their order, so it compares across stores: a
// replication follower and its primary agree on it exactly when they
// hold the same sequence and payloads, whatever their flush and
// compaction histories. Cost is O(n) — a full iteration — so it is a
// verification tool, not a serving-path key.
func (sn *Snapshot) ContentFingerprint() uint64 {
	return contentFP(sn.Len(), len(sn.schema), sn.Iterate, sn.cellAt)
}

// contentFP streams a sequence through the content hash: each value is
// mixed as its length then its bytes, so concatenation boundaries are
// unambiguous ("ab","c" never collides with "a","bc"). With ncols > 0,
// each position's row cells follow its value, read through cellAt.
func contentFP(n, ncols int, iterate func(l, r int, fn func(pos int, s string) bool), cellAt func(pos, col int) Value) uint64 {
	h := uint64(fnvOffset64)
	iterate(0, n, func(pos int, v string) bool {
		h = fpMix(h, uint64(len(v)))
		for i := 0; i < len(v); i++ {
			h ^= uint64(v[i])
			h *= fnvPrime64
		}
		for c := 0; c < ncols; c++ {
			cell := cellAt(pos, c)
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

// FNV-1a, the same mixing partition.go uses for routing.
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
	if pos < 0 || pos >= sn.Len() {
		panic(fmt.Sprintf("store: Access(%d) out of range [0,%d)", pos, sn.Len()))
	}
	i, rel := sn.locate(pos)
	return sn.segs[i].Access(rel)
}

func (sn *Snapshot) checkPos(op string, pos int) {
	if pos < 0 || pos > sn.Len() {
		panic(fmt.Sprintf("store: %s position %d out of range [0,%d]", op, pos, sn.Len()))
	}
}

// Rank counts occurrences of s in positions [0, pos); pos may equal
// Len(). The answer is the sum of full-segment ranks before pos plus a
// partial rank in the segment containing it.
func (sn *Snapshot) Rank(s string, pos int) int {
	sn.checkPos("Rank", pos)
	return sn.rank(newProbe(s, false), pos)
}

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (sn *Snapshot) RankPrefix(p string, pos int) int {
	sn.checkPos("RankPrefix", pos)
	return sn.rank(newProbe(p, true), pos)
}

func (sn *Snapshot) rank(k *probe, pos int) int {
	total := 0
	for i, seg := range sn.segs {
		segPos := pos - sn.offs[i]
		if segPos <= 0 {
			break
		}
		if l := seg.Len(); segPos > l {
			segPos = l
		}
		total += seg.rank(k, segPos)
	}
	return total
}

// Count returns the total number of occurrences of s.
func (sn *Snapshot) Count(s string) int { return sn.Rank(s, sn.Len()) }

// CountPrefix returns the total number of elements with byte prefix p.
func (sn *Snapshot) CountPrefix(p string) int { return sn.RankPrefix(p, sn.Len()) }

// Select returns the position of the idx-th (0-based) occurrence of s,
// with ok=false when s occurs fewer than idx+1 times: walk the segments
// accumulating their counts until the one holding the idx-th occurrence.
func (sn *Snapshot) Select(s string, idx int) (int, bool) {
	return sn.sel(newProbe(s, false), idx)
}

// SelectPrefix returns the position of the idx-th (0-based) element with
// byte prefix p, with ok=false when there are not that many.
func (sn *Snapshot) SelectPrefix(p string, idx int) (int, bool) {
	return sn.sel(newProbe(p, true), idx)
}

func (sn *Snapshot) sel(k *probe, idx int) (int, bool) {
	if idx < 0 {
		return 0, false
	}
	cum := 0
	for i, seg := range sn.segs {
		c := seg.rank(k, seg.Len())
		if idx < cum+c {
			pos, ok := seg.sel(k, idx-cum)
			if !ok {
				return 0, false
			}
			return sn.offs[i] + pos, true
		}
		cum += c
	}
	return 0, false
}

// IteratePrefix streams the positions of elements with byte prefix p in
// ascending order, starting from the from-th (0-based) match; fn
// receives the match index and position and returns false to stop.
// Segments are concatenated in position order, so the walk visits each
// segment's matches in turn, fast-forwarding whole segments below the
// from offset by their match counts; inside a generation the matches come
// from one streaming prefix cursor, not a descent per match. fn runs
// with no lock held. It panics if from is negative.
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
// from-th match on, on either view.
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

// matchView is what a predicate scan needs of a view, plain or sharded:
// its match stream and its row test.
type matchView interface {
	Len() int
	Access(pos int) string
	Schema() []ColumnSpec
	// scan streams, in position order, the matches of the prefix probe k
	// whose rows pass preds, from the from-th (0-based) of them on: fn
	// receives the match index, the position and the value on demand, and
	// returns false to stop. Without preds the from offset is sought; with
	// them nothing is — the intersection has no counts — and the survivors
	// before from are walked past, their values never read.
	scan(k *probe, from int, preds []Pred, fn func(idx, pos int, val valFn) bool)
	// matchAt tests the row at position pos against pre-validated preds.
	matchAt(pos int, preds []Pred) bool
}

// where is IterateWhere and ScanWhere on either view: the view's match
// stream filtered by its row test, or — with no prefix to stream from —
// every position put to the test.
func where(v matchView, prefix string, from int, preds []Pred, fn func(idx, pos int, val valFn) bool) error {
	if from < 0 {
		return fmt.Errorf("store: IterateWhere from %d negative", from)
	}
	if err := validatePreds(v.Schema(), preds); err != nil {
		return err
	}
	if prefix != "" {
		v.scan(newProbe(prefix, true), from, preds, fn)
		return nil
	}
	// No prefix node to stream from: a surviving position's value is a
	// point read.
	pos := 0
	val := func(dst []byte) []byte { return append(dst, v.Access(pos)...) }
	for idx := 0; pos < v.Len(); pos++ {
		if !v.matchAt(pos, preds) {
			continue
		}
		if idx >= from && !fn(idx, pos, val) {
			break
		}
		idx++
	}
	return nil
}

// scan is the plain view's match stream (see matchView): a loop over the
// snapCursor the sharded merge drives one of per shard.
func (sn *Snapshot) scan(k *probe, from int, preds []Pred, fn func(idx, pos int, val valFn) bool) {
	c := snapCursor{sn: sn, k: k, segs: make([]segCursor, len(sn.segs))}
	defer c.close()
	idx := 0
	if len(preds) == 0 && from > 0 {
		c.seek(from)
		idx = from
	}
	val := c.value
	for {
		pos, ok := c.next()
		if !ok {
			return
		}
		if len(preds) > 0 && !sn.matchAt(pos, preds) {
			continue
		}
		if idx >= from && !fn(idx, pos, val) {
			return
		}
		idx++
	}
}

// snapCursor is the snapshot's matches of a prefix probe in position
// order, one at a time, from a matchCursor per segment — what a plain scan
// loops over and the sharded merge drives one of per shard. A segment is
// descended when first needed: for its match count, label-only, when a
// rank or a seek only passes over it; for its cursor when a rank falls
// inside it or the stream reaches it — so at most twice. Not safe for
// concurrent use.
type snapCursor struct {
	sn   *Snapshot
	k    *probe
	segs []segCursor // one per segment
	i    int         // the segment the stream is in
}

type segCursor struct {
	matchCursor     // nil until made
	n           int // the segment's match count plus one; 0 until asked for
}

func (c *snapCursor) seg(i int) matchCursor {
	if c.segs[i].matchCursor == nil {
		c.segs[i].matchCursor = c.sn.segs[i].cursor(c.k)
	}
	return c.segs[i].matchCursor
}

// count returns segment i's match count, remembered from one probe of a
// seek to the next.
func (c *snapCursor) count(i int) int {
	if c.segs[i].n == 0 {
		seg := c.sn.segs[i]
		c.segs[i].n = 1 + seg.rank(c.k, seg.Len())
	}
	return c.segs[i].n - 1
}

// rankAt counts the matches at positions before pos: the counts of the
// segments wholly before it and a rank along the remembered path in the
// one that holds it.
func (c *snapCursor) rankAt(pos int) int {
	total := 0
	for i, off := range c.sn.offs[:len(c.segs)] {
		switch {
		case pos <= off:
			return total
		case pos < c.sn.offs[i+1]:
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
			return c.sn.offs[c.i] + pos, true
		}
	}
	return 0, false
}

// value appends to dst the value of the match next last returned.
func (c *snapCursor) value(dst []byte) []byte { return c.segs[c.i].value(dst) }

func (c *snapCursor) close() {
	for _, sc := range c.segs {
		if sc.matchCursor != nil {
			sc.close()
		}
	}
}

// Iterate streams the elements of positions [l, r) in order, stopping
// early if fn returns false. Frozen generations are walked with their
// streaming enumerator (one trie walk per generation instead of one
// root descent per element); memtable views are extracted in bounded
// batches under their read lock, with fn always called lock-free.
func (sn *Snapshot) Iterate(l, r int, fn func(pos int, s string) bool) {
	if l < 0 || r < l || r > sn.Len() {
		panic(fmt.Sprintf("store: Iterate(%d,%d) out of range [0,%d]", l, r, sn.Len()))
	}
	for i, seg := range sn.segs {
		if sn.offs[i] >= r {
			return
		}
		lo, hi := l-sn.offs[i], r-sn.offs[i]
		if lo < 0 {
			lo = 0
		}
		if n := seg.Len(); hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		stopped := false
		off := sn.offs[i]
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

// Schema returns the snapshot's column schema (nil when the store has
// no columns). The returned slice must not be modified.
func (sn *Snapshot) Schema() []ColumnSpec { return sn.schema }

// cellAt reads the cell of column col at global position pos, routing
// through the segment's column reader.
func (sn *Snapshot) cellAt(pos, col int) Value {
	i, rel := sn.locate(pos)
	if c := sn.segs[i].cols; c != nil {
		return c.colValue(col, rel)
	}
	return Value{}
}

// Row returns the payload row at position pos (one cell per schema
// column; nil when the store has no schema). Cells written before the
// schema was pinned, or never filled, are NULL. Panics if pos is out of
// range, like Access.
func (sn *Snapshot) Row(pos int) Row {
	if pos < 0 || pos >= sn.Len() {
		panic(fmt.Sprintf("store: Row(%d) out of range [0,%d)", pos, sn.Len()))
	}
	if len(sn.schema) == 0 {
		return nil
	}
	i, rel := sn.locate(pos)
	row := make(Row, len(sn.schema))
	if c := sn.segs[i].cols; c != nil {
		for j := range row {
			row[j] = c.colValue(j, rel)
		}
	}
	return row
}

// matchAt evaluates pre-validated predicates against the row at global
// position pos, reading each tested cell through the wavelet planes —
// no row is materialized.
func (sn *Snapshot) matchAt(pos int, preds []Pred) bool {
	i, rel := sn.locate(pos)
	c := sn.segs[i].cols
	for _, p := range preds {
		if c == nil || !matchValue(c.colValue(p.Col, rel), p) {
			return false
		}
	}
	return true
}

// CountWhere counts positions whose value has byte prefix prefix (""
// matches everything) AND whose row satisfies every predicate — the §5
// range-query surface intersected with numeric column filters. A single
// predicate with no prefix is answered purely by rank arithmetic: per
// segment, the presence bitvector maps the span onto present indices
// and the column's wavelet planes count values in the predicate's
// range — no value is ever materialized or even decoded. Other shapes
// walk the narrower side (prefix matches, or all positions) and test
// cells individually. NULL cells match no predicate.
func (sn *Snapshot) CountWhere(prefix string, preds ...Pred) (int, error) {
	if err := validatePreds(sn.schema, preds); err != nil {
		return 0, err
	}
	if len(preds) == 0 {
		if prefix == "" {
			return sn.Len(), nil
		}
		return sn.CountPrefix(prefix), nil
	}
	if prefix == "" && len(preds) == 1 {
		return sn.countPred(preds[0]), nil
	}
	count := 0
	if prefix == "" {
		for pos := 0; pos < sn.Len(); pos++ {
			if sn.matchAt(pos, preds) {
				count++
			}
		}
		return count, nil
	}
	sn.scan(newProbe(prefix, true), 0, preds, func(int, int, valFn) bool {
		count++
		return true
	})
	return count, nil
}

// countPred sums one predicate's rank-arithmetic count over the
// segments. Allocation-free — the CountWhere fast path.
func (sn *Snapshot) countPred(p Pred) int {
	lo, hi, negate, empty := predRange(p.Op, p.Val)
	if empty {
		return 0
	}
	count := 0
	for _, seg := range sn.segs {
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

// IterateWhere streams the positions matching prefix AND preds in
// ascending order, starting from the from-th (0-based) match; fn
// receives the match index and position and returns false to stop.
// Unlike IteratePrefix, earlier matches cannot be skipped by rank
// arithmetic (the predicate intersection has no precomputed counts), so
// resuming at from costs a walk over the earlier matches' candidates.
func (sn *Snapshot) IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error {
	return where(sn, prefix, from, preds, func(idx, pos int, _ valFn) bool { return fn(idx, pos) })
}

// ScanWhere is IterateWhere that also hands fn each match's value, as
// ScanPrefix does: v is valid only during that call of fn. With a prefix,
// candidates come from the positions-only prefix cursor and a value is
// read only for a candidate that passed every predicate and lies at or
// past from.
func (sn *Snapshot) ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error {
	return where(sn, prefix, from, preds, withValue(fn))
}

// prefixed returns a view of the snapshot's first n elements — the
// per-shard cut a ShardedSnapshot pins so every shard view ends exactly
// at the cross-shard watermark. n must not exceed Len.
func (sn *Snapshot) prefixed(n int) *Snapshot {
	if n >= sn.Len() {
		return sn
	}
	var segs []snapSeg
	for i, seg := range sn.segs {
		if sn.offs[i] >= n {
			break
		}
		if sn.offs[i+1] <= n {
			segs = append(segs, seg)
			continue
		}
		keep := n - sn.offs[i]
		cols := seg.cols
		if cols != nil {
			cols = clampCols{cols: cols, n: keep}
		}
		segs = append(segs, snapSeg{segment: clampSeg{seg.segment, keep}, cols: cols})
	}
	out := newSnapshot(segs)
	out.schema = sn.schema
	return out
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
	if r > c.n {
		r = c.n
	}
	c.segment.Iterate(l, r, fn)
}

// Slice returns the elements of positions [l, r) as a fresh slice,
// streamed through Iterate.
func (sn *Snapshot) Slice(l, r int) []string {
	if l < 0 || r < l || r > sn.Len() {
		panic(fmt.Sprintf("store: Slice(%d,%d) out of range [0,%d]", l, r, sn.Len()))
	}
	out := make([]string, 0, r-l)
	sn.Iterate(l, r, func(_ int, s string) bool {
		out = append(out, s)
		return true
	})
	return out
}
