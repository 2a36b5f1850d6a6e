package store

import (
	"sort"
	"sync"
	"sync/atomic"

	wavelettrie "repro"
)

// memtable is the mutable head of the sequence: an append-only Wavelet
// Trie fed by exactly one WAL. The trie is guarded by a read-write
// mutex; n publishes the count of fully applied appends, so a reader
// that captured n sees a stable prefix no matter how far the writer has
// advanced since. Once sealed (by a flush) the memtable is never written
// again and the mutex is uncontended.
type memtable struct {
	mu   sync.RWMutex
	trie *wavelettrie.AppendOnly
	n    atomic.Int64
	wal  *wal
	// seqs holds the global sequence numbers of the applied records, in
	// local order — populated only when the shard is routed (a SHARDS
	// store's; strictly increasing there, because allocation and
	// apply both happen under the shard's append lock). The sharded flush
	// barrier reads the sealed tail; sharded recovery reads the replayed
	// tail.
	seqs []uint64
	// cols holds the payload rows of the applied records, sparsely (only
	// present cells cost memory) — nil when the store has no column
	// schema. Guarded by mu like the trie.
	cols *memCols
}

func newMemtable(w *wal, schema []ColumnSpec) *memtable {
	m := &memtable{trie: wavelettrie.NewAppendOnly(), wal: w}
	if len(schema) > 0 {
		m.cols = newMemCols(schema)
	}
	return m
}

// applyBatch inserts vs into the trie under one lock acquisition and
// publishes the new length once — the memtable half of a group commit, and
// the one way a value enters a memtable (a single append is a batch of one;
// replay at Open is a batch per log). The WAL write happens in the caller,
// outside the trie lock, so fsync latency never stalls readers. seqs, when
// non-nil, carries the records' global sequence numbers (sharded stores);
// rows, when non-nil, the payload rows (entries may individually be nil =
// all-NULL). Both are parallel to vs.
func (m *memtable) applyBatch(vs []string, rows []Row, seqs []uint64) {
	m.mu.Lock()
	for i, s := range vs {
		if m.cols != nil {
			var row Row
			if rows != nil {
				row = rows[i]
			}
			m.cols.appendRow(m.trie.Len(), row)
		}
		m.trie.Append(s)
	}
	if seqs != nil {
		m.seqs = append(m.seqs, seqs...)
	}
	m.mu.Unlock()
	m.n.Add(int64(len(vs)))
}

// memCols is the memtable's column side: per column, the ascending
// positions holding a present cell and that cell's value in parallel
// arrays. Appends with no payload cost nothing, and the sparse layout
// is exactly the (position, value) stream the freeze builder wants.
type memCols struct {
	specs []ColumnSpec
	cols  []memCol
}

type memCol struct {
	poss  []int
	nums  []uint64
	blobs [][]byte
}

func newMemCols(schema []ColumnSpec) *memCols {
	return &memCols{specs: schema, cols: make([]memCol, len(schema))}
}

// appendRow records the present cells of the row applied at position
// pos. Blob bytes are copied: the caller's slice (a user argument or a
// transient WAL buffer) is never retained. Caller holds the memtable
// lock.
func (mc *memCols) appendRow(pos int, row Row) {
	for j := range row {
		cell := row[j]
		if cell.IsNull() {
			continue
		}
		c := &mc.cols[j]
		c.poss = append(c.poss, pos)
		if cell.kind == ColUint64 {
			c.nums = append(c.nums, cell.num)
		} else {
			c.blobs = append(c.blobs, append([]byte(nil), cell.b...))
		}
	}
}

// presentBounds returns the index range of c.poss falling inside
// positions [l, r).
func (c *memCol) presentBounds(l, r int) (int, int) {
	lo := sort.SearchInts(c.poss, l)
	hi := lo + sort.SearchInts(c.poss[lo:], r)
	return lo, hi
}

// cellAt returns the i-th present cell of column j as a Value.
func (mc *memCols) cellAt(j, i int) Value {
	c := &mc.cols[j]
	if mc.specs[j].Kind == ColUint64 {
		return U64(c.nums[i])
	}
	return Blob(c.blobs[i])
}

// feedColumn streams column col's present cells into a freeze builder.
// Only valid on a sealed memtable — the single RLock is uncontended and
// held across the walk.
func (m *memtable) feedColumn(col int, fn func(pos int, v Value) bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.cols == nil {
		return
	}
	c := &m.cols.cols[col]
	for i, pos := range c.poss {
		if !fn(pos, m.cols.cellAt(col, i)) {
			return
		}
	}
}

// maxSeq returns the largest retained sequence number (the last one —
// seqs are increasing) and whether any record carries one. Only valid on
// a sealed or otherwise quiescent memtable.
func (m *memtable) maxSeq() (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.seqs) == 0 {
		return 0, false
	}
	return m.seqs[len(m.seqs)-1], true
}

// frozen returns the sealed memtable's sequence in the succinct form a
// generation file holds: the append-only trie's shape, labels and node
// bitvectors copied as they stand (wavelettrie.AppendOnly.Frozen), no
// element decoded. Only valid once no writer can touch the trie again;
// the single RLock is then uncontended.
func (m *memtable) frozen() (*wavelettrie.Frozen, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.trie.Frozen()
}

// memView is a snapshot-bounded read view of a memtable: every
// operation takes the read lock and clamps to the captured length, so
// answers are those of the first n elements regardless of concurrent
// appends.
type memView struct {
	m *memtable
	n int
}

func (v memView) Len() int { return v.n }

func (v memView) alphabet(u *alphabetUnion, n int) { u.mems = append(u.mems, memView{v.m, n}) }

func (v memView) Access(pos int) string {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.m.trie.Access(pos)
}

func (v memView) rank(k *probe, pos int) int {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.rankLocked(k, pos)
}

func (v memView) rankLocked(k *probe, pos int) int {
	if k.prefix {
		return v.m.trie.RankPrefix(k.key, pos)
	}
	return v.m.trie.Rank(k.key, pos)
}

func (v memView) sel(k *probe, idx int) (int, bool) {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	// Matches at positions >= n are invisible to this view: idx is
	// valid only below the clamped rank, and then the global select
	// necessarily lands inside the prefix.
	if idx < 0 || idx >= v.rankLocked(k, v.n) {
		return 0, false
	}
	if k.prefix {
		return v.m.trie.SelectPrefix(k.key, idx)
	}
	return v.m.trie.Select(k.key, idx)
}

func (v memView) cursor(k *probe) matchCursor { return &memCursor{v: v, k: k} }

// memCursor is the view's matches of a prefix probe behind a pull cursor:
// the consumer runs between the cursor's batches, with no lock held.
// Positions are extracted in batches, each under one read-lock acquisition
// with the view's match count taken once; between batches no lock is held.
// The batch doubles from a few matches, so a consumer that stops early has
// not paid for a long one. Values are decoded by values, a chunk at a
// time.
type memCursor struct {
	v     memView
	k     *probe
	n     int   // the view's match count, taken with the last batch
	j     int   // index of the match next returns
	buf   []int // the extracted positions, buf[i] being match j's
	i     int
	batch int
	cur   int    // position of the match next last returned
	vals  []byte // the values of values' current chunk, end to end
	ends  []int  // where each of them ends in vals
}

func (c *memCursor) rankAt(pos int) int { return c.v.rank(c.k, pos) }

func (c *memCursor) seek(j int) { c.j, c.buf, c.i = j, c.buf[:0], 0 }

func (c *memCursor) next() (int, bool) {
	if c.i == len(c.buf) {
		c.batch = min(max(2*c.batch, 8), 512)
		c.buf, c.i = c.buf[:0], 0
		m := c.v.m
		m.mu.RLock()
		c.n = c.v.rankLocked(c.k, c.v.n)
		for j := c.j; j < min(c.j+c.batch, c.n); j++ {
			pos, _ := m.trie.SelectPrefix(c.k.key, j)
			c.buf = append(c.buf, pos)
		}
		m.mu.RUnlock()
		if len(c.buf) == 0 {
			return 0, false
		}
	}
	c.cur = c.buf[c.i]
	c.i++
	c.j++
	return c.cur, true
}

// mark is the match's position.
func (c *memCursor) mark() int { return c.cur }

// values decodes the values at the positions ms in chunks of at most
// memChunk, each under one read-lock acquisition, and hands a chunk's
// values to fn with the lock released. Each value is a point read: for
// the runs a memtable page asks for — at most 256 positions, in a trie no
// larger than the flush threshold — Access costs less a value than a
// sequential enumeration of the run on the pointer trie does (which wins
// only on long runs, wtbench q5). A position below the
// view's clamp is immutable, so chunks may re-enter the trie while
// appends go on.
func (c *memCursor) values(ms []int, fn func(k int, v []byte)) {
	m := c.v.m
	for k := 0; k < len(ms); k += memChunk {
		chunk := ms[k:min(k+memChunk, len(ms))]
		c.vals, c.ends = c.vals[:0], c.ends[:0]
		m.mu.RLock()
		for _, pos := range chunk {
			c.vals = append(c.vals, m.trie.Access(pos)...)
			c.ends = append(c.ends, len(c.vals))
		}
		m.mu.RUnlock()
		lo := 0
		for i, hi := range c.ends {
			fn(k+i, c.vals[lo:hi])
			lo = hi
		}
	}
}

// memChunk bounds the values memCursor.values decodes under one read lock.
const memChunk = 256

func (c *memCursor) close() {}

// colValue reads the cell of column col at position pos; positions at
// or past the clamp (and stores with no schema) read as NULL.
func (v memView) colValue(col, pos int) Value {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	if v.m.cols == nil || pos >= v.n {
		return Value{}
	}
	c := &v.m.cols.cols[col]
	i := sort.SearchInts(c.poss, pos)
	if i == len(c.poss) || c.poss[i] != pos {
		return Value{}
	}
	return v.m.cols.cellAt(col, i)
}

// cells reads the memtable's cells one by one, each under the lock.
func (v memView) cells() colCursor { return v }

// colRange counts present cells of column col in positions [l, r) with
// value in [lo, hi], by linear scan over the sparse present list — the
// memtable is bounded by the flush threshold, so the scan is short.
func (v memView) colRange(col, l, r int, lo, hi uint64) int {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	if v.m.cols == nil || lo > hi {
		return 0
	}
	if r > v.n {
		r = v.n
	}
	c := &v.m.cols.cols[col]
	plo, phi := c.presentBounds(l, r)
	count := 0
	for i := plo; i < phi; i++ {
		if x := c.nums[i]; x >= lo && x <= hi {
			count++
		}
	}
	return count
}

// colPresent counts present cells of column col in positions [l, r).
func (v memView) colPresent(col, l, r int) int {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	if v.m.cols == nil {
		return 0
	}
	if r > v.n {
		r = v.n
	}
	c := &v.m.cols.cols[col]
	plo, phi := c.presentBounds(l, r)
	return phi - plo
}

func (v memView) Height() int {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.m.trie.Height()
}

func (v memView) SizeBits() int {
	v.m.mu.RLock()
	defer v.m.mu.RUnlock()
	return v.m.trie.SizeBits()
}
