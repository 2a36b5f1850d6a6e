package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	wavelettrie "repro"
	"repro/internal/wire"
)

// The SHARDS manifest pins the two parameters that must never drift
// from the data they routed: the partition count and the partitioner
// name. It is written once at creation and validated on every open.
const (
	shardsMagic   = 0x52485357 // "WSHR" little-endian
	shardsVersion = 1

	shardsName = "SHARDS"

	// partitionerName names pickShard in the SHARDS manifest — the only
	// routing a store is created with or opens.
	partitionerName = "fnv1a"

	// MaxShards caps the partition count of a ShardedStore (shard ids
	// are stored as single bytes in the ROUTER log).
	MaxShards = 256

	defaultShards = 4
)

// ShardedOptions tune a ShardedStore. The zero value (or a nil pointer)
// selects the defaults.
type ShardedOptions struct {
	// Shards is the partition count, fixed at creation and recorded in
	// the SHARDS manifest; reopening accepts 0 ("use whatever the store
	// was created with") or the exact recorded count. Default 4, max
	// MaxShards.
	Shards int
	// Store tunes every shard (flush threshold, compaction fan-in, WAL
	// fsync). Each shard applies these independently.
	Store Options
}

// pickShard routes v to its shard: the 32-bit FNV-1a hash of its bytes,
// modulo the shard count. Its contract is to be a function of the value
// alone, which the planner leans on twice: every occurrence of v lives on
// one shard, so whole-value Rank/Select/Count touch only it, and per-shard
// alphabets are disjoint, so the distinct count is a sum. SHARDS pins it
// by name (partitionerName): re-routing would scramble data already laid.
func pickShard(v string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// ShardedStore scales the write path of Store across hash partitions:
// every shard is a full Store — its own WAL, memtable, generations and
// compactor — in a subdirectory, so appends from many
// writers fan out across per-shard locks and flush/compaction proceed
// per shard, while reads see one logical sequence in global append
// order. A shared router records which shard owns each global position
// (the interleave), and cross-shard snapshots stitch per-shard answers
// back together by offset arithmetic over it — see Snapshot and
// DESIGN.md §7.
//
// All methods are safe for concurrent use. The query methods satisfy
// wavelettrie.StringIndex, each call served by the current pinned view
// (see Snapshot).
//
// Visibility: an Append is visible to new snapshots once it and every
// append sequenced before it have returned — a straggling concurrent
// appender briefly holds back the watermark, never the data.
type ShardedStore struct {
	dir    string
	shards []*Store
	schema []ColumnSpec // the shards' shared column schema
	router *router
	seq    atomic.Uint64            // next global sequence number
	view   atomic.Pointer[Snapshot] // the pinned view of the current state, if a reader has built it

	logMu     sync.Mutex // guards the ROUTER log, persisted and logErr
	log       *wal
	persisted uint64 // router entries durably in the ROUTER log
	logErr    error  // sticky ROUTER append/commit failure: the file may
	// hold a partially acknowledged suffix, so retrying would duplicate
	// claims and scramble the recovered order — once broken, never
	// append again (recovery re-derives the tail from WAL headers)

	failure atomic.Pointer[error]
	closed  atomic.Bool
	unlock  func()
}

// ShardedStore serves the same interface surface as Store.
var _ wavelettrie.StringIndex = (*ShardedStore)(nil)

// shardsManifest is the decoded SHARDS file.
type shardsManifest struct {
	shards      int
	partitioner string
}

func encodeShards(m shardsManifest) []byte {
	w := wire.NewWriter(shardsMagic, shardsVersion)
	w.Int(m.shards)
	w.Blob([]byte(m.partitioner))
	return w.Bytes()
}

// parseShards decodes and validates a SHARDS image. Arbitrary input
// must error, never panic.
func parseShards(data []byte) (shardsManifest, error) {
	var m shardsManifest
	r, err := wire.NewReader(data, shardsMagic, shardsVersion)
	if err != nil {
		return m, err
	}
	m.shards = r.Int()
	m.partitioner = string(r.Blob())
	if err := r.Err(); err != nil {
		return m, err
	}
	if err := r.Done(); err != nil {
		return m, err
	}
	if m.shards < 1 || m.shards > MaxShards {
		return m, fmt.Errorf("store: SHARDS names %d partitions, want 1..%d", m.shards, MaxShards)
	}
	if m.partitioner != partitionerName {
		return m, fmt.Errorf("store: SHARDS names partitioner %q, stores route with %q", m.partitioner, partitionerName)
	}
	return m, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// isShardDirName reports whether name has the shard-subdirectory shape
// (shard ids are at most 3 digits — MaxShards is 256).
func isShardDirName(name string) bool {
	if len(name) != 9 || name[:6] != "shard-" {
		return false
	}
	for i := 6; i < 9; i++ {
		if name[i] < '0' || name[i] > '9' {
			return false
		}
	}
	return true
}

// OpenSharded opens the sharded store in dir, creating it if empty. All
// shards recover in parallel; the global interleave is rebuilt from the
// ROUTER log plus the sequence headers in each shard's WAL tail, then
// rewritten fresh. Opening validates the shard count against the SHARDS
// manifest, and refuses a manifest that names a partitioner other than
// the FNV-1a routing every sharded store uses.
func OpenSharded(dir string, opts *ShardedOptions) (*ShardedStore, error) {
	var o ShardedOptions
	if opts != nil {
		o = *opts
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s holds a plain store; use Open", dir)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			unlock()
		}
	}()

	count, err := loadShardsManifest(dir, o.Shards)
	if err != nil {
		return nil, err
	}
	claimed, err := readRouterLog(dir)
	if err != nil {
		return nil, err
	}
	for _, id := range claimed {
		if int(id) >= count {
			return nil, fmt.Errorf("store: ROUTER references shard %d of %d — SHARDS/ROUTER mismatch", id, count)
		}
	}

	ss := &ShardedStore{dir: dir, unlock: unlock}
	ss.router = newRouter(count)
	hooks := &shardHooks{barrier: ss.sealBarrier, retire: func() { ss.view.Store(nil) }}

	ss.shards = make([]*Store, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss.shards[i], errs[i] = openStore(filepath.Join(dir, shardDirName(i)), &o.Store, hooks)
		}(i)
	}
	wg.Wait()
	closeOpened := func() {
		for _, sh := range ss.shards {
			if sh != nil {
				sh.Close()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			closeOpened()
			return nil, err
		}
	}

	// Every shard was created with the same Options, so their pinned
	// column schemas must agree; divergence means the directory was
	// tampered with, and serving it would scramble rows across shards.
	ss.schema = ss.shards[0].schema
	for i, sh := range ss.shards {
		if !schemaEqual(sh.schema, ss.schema) {
			closeOpened()
			return nil, fmt.Errorf("store: shard %d pins a different column schema than shard 0", i)
		}
	}

	order, newTails, err := reconcile(claimed, ss.shards)
	if err != nil {
		closeOpened()
		return nil, err
	}
	ss.router.bulkLoad(order)
	ss.seq.Store(uint64(len(order)))
	// The recovered order is renumbered compactly (lost records close
	// up), so the sequence numbers retained in each shard's replayed
	// memtable must be renumbered too — otherwise a pre-crash number
	// beyond the new length would make the flush barrier wait for a
	// watermark that can never come, and fresh appends would break
	// per-shard monotonicity. The on-disk WAL headers keep their old
	// values; the next recovery drops them by count (they are covered
	// by the rewritten ROUTER log), never by value.
	for i, sh := range ss.shards {
		sh.renumberTail(newTails[i])
	}
	// Rewrite the ROUTER log fresh: the recovered order is renumbered
	// compactly, so live sequence numbers equal global positions again
	// and every current record is durably covered before any new flush.
	log, err := writeRouterLog(dir, order)
	if err != nil {
		closeOpened()
		return nil, err
	}
	ss.log = log
	ss.persisted = uint64(len(order))
	ok = true
	return ss, nil
}

// loadShardsManifest reads or creates dir/SHARDS and returns the shard
// count, validating it against the requested one (0: any).
func loadShardsManifest(dir string, shards int) (int, error) {
	path := filepath.Join(dir, shardsName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		count := shards
		if count == 0 {
			count = defaultShards
		}
		if count < 1 || count > MaxShards {
			return 0, fmt.Errorf("store: %d shards outside 1..%d", count, MaxShards)
		}
		m := shardsManifest{shards: count, partitioner: partitionerName}
		if err := writeFileAtomic(dir, shardsName, encodeShards(m)); err != nil {
			return 0, err
		}
		return count, nil
	}
	if err != nil {
		return 0, err
	}
	m, err := parseShards(data)
	if err != nil {
		return 0, fmt.Errorf("store: %s: %w", path, err)
	}
	if shards != 0 && shards != m.shards {
		return 0, fmt.Errorf("store: store has %d shards, options ask for %d (the count is fixed at creation)", m.shards, shards)
	}
	return m.shards, nil
}

// reconcile rebuilds the global interleave after an open: the ROUTER
// log claims a prefix of it; each claimed entry is kept if its shard
// still holds the record (a shard surviving a crash always holds a
// prefix of its local sequence, so the j-th claimed entry of a shard is
// its j-th local record), and the per-shard WAL tails — ordered by
// their sequence headers — supply everything the log had not yet
// covered. The result is the surviving subsequence in original append
// order: a crash without Sync may lose a per-shard suffix of
// acknowledged appends (exactly the plain Store's contract, per shard),
// never reorder, and with Sync every acknowledged append survives.
// It also returns, per shard, the renumbered sequence list of the
// shard's unflushed records (their positions in the returned order) —
// the positions-equal-sequence-numbers invariant every open restores.
func reconcile(claimed []byte, shards []*Store) (order []byte, newTails [][]uint64, err error) {
	n := len(shards)
	c := make([]int, n)          // surviving local counts
	tails := make([][]uint64, n) // unflushed on-disk sequence numbers, local order
	flushed := make([]int, n)
	for s, st := range shards {
		c[s] = st.Len()
		tails[s] = st.recoveredTail()
		flushed[s] = c[s] - len(tails[s])
	}

	total := 0
	for _, cs := range c {
		total += cs
	}
	order = make([]byte, 0, total)
	k := make([]int, n)
	for _, id := range claimed {
		if k[id] < c[id] {
			order = append(order, id)
			k[id]++
		}
		// Else: the claimed record was lost with the shard's WAL tail;
		// the prefix property means every later claim on this shard is
		// lost too, and each is skipped here the same way.
	}

	type tailRec struct {
		seq   uint64
		shard int
	}
	var pend []tailRec
	for s := range shards {
		if k[s] < flushed[s] {
			return nil, nil, fmt.Errorf("store: ROUTER log covers %d records of shard %d but %d are flushed — interleave lost", k[s], s, flushed[s])
		}
		// Only the uncovered suffix orders by its headers; covered
		// records may carry stale pre-renumbering values (dropped by
		// count), so monotonicity is only meaningful past the coverage
		// point.
		uncovered := tails[s][k[s]-flushed[s]:]
		for i, seq := range uncovered {
			if i > 0 && seq <= uncovered[i-1] {
				return nil, nil, fmt.Errorf("store: shard %d WAL sequence numbers not increasing", s)
			}
			pend = append(pend, tailRec{seq, s})
		}
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].seq < pend[j].seq })
	for i := 1; i < len(pend); i++ {
		if pend[i].seq == pend[i-1].seq {
			return nil, nil, fmt.Errorf("store: shards %d and %d both claim sequence number %d", pend[i-1].shard, pend[i].shard, pend[i].seq)
		}
	}
	for _, t := range pend {
		order = append(order, byte(t.shard))
	}

	// Renumber: position g of the final order is sequence number g; the
	// unflushed records of shard s are its last len(tails[s]) locals.
	newTails = make([][]uint64, n)
	pos := make([]int, n)
	for g, id := range order {
		if pos[id] >= flushed[id] {
			newTails[id] = append(newTails[id], uint64(g))
		}
		pos[id]++
	}
	return order, newTails, nil
}

// Append routes v to its shard and adds it at the end of the global
// sequence. Appends to different shards contend only on the shared
// sequence counter (one atomic add); appends to the same shard
// serialize on that shard's lock, exactly as in a plain Store.
func (ss *ShardedStore) Append(v string) error { return ss.AppendRow(v, nil) }

// AppendRow appends v with a payload row; the row rides to the same
// shard as the value, so stitched reads find it by the same locate
// arithmetic. It is AppendBatchRows of one value — pre-validated like any
// batch, so a record the log would refuse fails before a sequence number is
// allocated. See Store.AppendRow for row semantics.
func (ss *ShardedStore) AppendRow(v string, row Row) error {
	return ss.AppendBatchRows([]string{v}, []Row{row})
}

// AppendBatch adds vs at the end of the global sequence, atomically and
// in argument order: no append from any other caller lands inside the
// batch. The batch is routed per shard, every involved shard's append
// lock is taken once (in shard order, so concurrent batches cannot
// deadlock), sequence numbers are allocated as one block in argument
// order while the locks are held, and each shard gets one WAL write and
// at most one fsync for its whole sub-batch — the cross-shard group
// commit. An empty batch is a no-op.
func (ss *ShardedStore) AppendBatch(vs []string) error { return ss.AppendBatchRows(vs, nil) }

// AppendBatchRows is AppendBatch with one payload row per value; rows
// may be nil (no payloads) or exactly len(vs) long, with nil entries
// meaning all-NULL. The atomicity and ordering contract is AppendBatch's.
func (ss *ShardedStore) AppendBatchRows(vs []string, rows []Row) error {
	if len(vs) == 0 {
		return nil
	}
	if rows != nil && len(rows) != len(vs) {
		return fmt.Errorf("store: AppendBatchRows got %d rows for %d values", len(rows), len(vs))
	}
	if err := ss.err(); err != nil {
		return err
	}
	if ss.closed.Load() {
		return errClosed
	}
	// Route and validate every value first; an oversized record or a
	// schema-mismatched row fails the whole batch before any lock is taken
	// or sequence number allocated — nothing is burned, nothing poisons the
	// store.
	var counts [MaxShards]int
	for i, v := range vs {
		var row Row
		if rows != nil {
			row = rows[i]
		}
		if err := validateRow(ss.schema, row); err != nil {
			return err
		}
		if n := walRecordBound(v, row); n > walMaxRecord {
			return fmt.Errorf("store: WAL record of %d bytes exceeds limit", n)
		}
		counts[pickShard(v, len(ss.shards))]++
	}
	// One entry per involved shard, in shard order (the lock order), each a
	// span of the batch regrouped by shard with argument order kept inside
	// it; counts turns into each shard's next offset. A batch on one shard
	// is its own regrouping.
	var few [2]shardBatch
	batches, off := few[:0], 0
	for sh, c := range counts[:len(ss.shards)] {
		if c > 0 {
			batches = append(batches, shardBatch{shard: sh, off: off, n: c})
			counts[sh], off = off, off+c
		}
	}
	gvs, grows := vs, rows
	if len(batches) > 1 {
		gvs = make([]string, len(vs))
		if rows != nil {
			grows = make([]Row, len(vs))
		}
	}
	var seqBuf [8]uint64
	seqs := seqBuf[:]
	if len(vs) > len(seqBuf) {
		seqs = make([]uint64, len(vs))
	}

	// Take the involved shards' append locks in shard order.
	for k, b := range batches {
		sh := ss.shards[b.shard]
		sh.appendMu.Lock()
		err := sh.err()
		if sh.closed.Load() {
			err = errClosed
		}
		if err != nil {
			ss.unlockShards(batches[:k+1])
			return err
		}
	}
	// The batch's sequence numbers are one block in argument order: no
	// appender slips inside the batch, and none into the involved shards
	// (their locks are held), so per-shard WAL order stays sequence order.
	base := ss.seq.Add(uint64(len(vs))) - uint64(len(vs))
	for i, v := range vs {
		j := i
		if len(batches) > 1 {
			sh := pickShard(v, len(ss.shards))
			j, counts[sh] = counts[sh], counts[sh]+1
			gvs[j] = v
			if rows != nil {
				grows[j] = rows[i]
			}
		}
		seqs[j] = base + uint64(i)
	}

	// One group commit per involved shard. A mid-batch failure burns the
	// batch's sequence numbers: the watermark can never pass them, so
	// visibility freezes at the last consistent point (records already
	// durable on other shards are reconciled or dropped at the next open)
	// until the store is reopened. Recording the failure unblocks waiters
	// (the seal barrier).
	for k := range batches {
		b := &batches[k]
		var bRows []Row
		if rows != nil {
			bRows = grows[b.off : b.off+b.n]
		}
		n, err := ss.shards[b.shard].appendBatchLocked(gvs[b.off:b.off+b.n], bRows, seqs[b.off:b.off+b.n])
		if err != nil {
			ss.unlockShards(batches)
			if err != errClosed {
				ss.fail(err)
			}
			return err
		}
		b.memLen = n
	}
	ss.unlockShards(batches)

	for _, b := range batches {
		for _, seq := range seqs[b.off : b.off+b.n] {
			ss.router.fill(seq, b.shard)
		}
	}
	for _, b := range batches {
		ss.shards[b.shard].nudgeFlush(b.memLen)
	}
	return nil
}

// shardBatch is one involved shard's span [off, off+n) of a sharded batch
// regrouped by shard, and the memtable length its group commit left.
type shardBatch struct {
	shard, off, n int
	memLen        int64
}

// unlockShards releases the append locks of bs's shards, last first.
func (ss *ShardedStore) unlockShards(bs []shardBatch) {
	for k := len(bs) - 1; k >= 0; k-- {
		ss.shards[bs[k].shard].appendMu.Unlock()
	}
}

// sealBarrier is the shardHooks barrier: before a shard flush may
// persist (and eventually delete the WAL of) records up to maxSeq, the
// ROUTER log must durably cover every global position through maxSeq.
// It waits out in-flight appends still below maxSeq, then appends and
// syncs the missing router suffix.
func (ss *ShardedStore) sealBarrier(maxSeq uint64) error {
	need := maxSeq + 1
	for ss.router.watermark.Load() < need {
		if err := ss.err(); err != nil {
			return err
		}
		if ss.closed.Load() {
			return errClosed
		}
		time.Sleep(20 * time.Microsecond)
	}
	ss.logMu.Lock()
	defer ss.logMu.Unlock()
	if ss.persisted >= need {
		return nil
	}
	return ss.persistRouterLocked()
}

// persistRouterLocked appends router entries [persisted, watermark) to
// the ROUTER log and syncs. Caller holds logMu. A failure poisons the
// log: part of the range may already be in the file, so a retry would
// append duplicate claims and silently scramble the recovered order —
// instead the store stays on WAL-header recovery for the tail.
func (ss *ShardedStore) persistRouterLocked() error {
	if ss.logErr != nil {
		return ss.logErr
	}
	w := ss.router.watermark.Load()
	if w <= ss.persisted {
		return nil
	}
	buf := make([]byte, 0, w-ss.persisted)
	for g := ss.persisted; g < w; g++ {
		buf = append(buf, byte(ss.router.at(g)))
	}
	if err := appendRouterIDs(ss.log, buf); err != nil {
		ss.logErr = err
		return err
	}
	if err := ss.log.commit(); err != nil {
		ss.logErr = err
		return err
	}
	ss.persisted = w
	return nil
}

// Flush flushes every shard's memtable into a frozen generation, in
// parallel. Empty memtables are no-ops, as in Store.Flush.
func (ss *ShardedStore) Flush() error { return ss.each((*Store).Flush) }

// Compact merges each shard's generations down to one, in parallel.
func (ss *ShardedStore) Compact() error { return ss.each((*Store).Compact) }

// each runs fn over all shards in parallel and returns the first error.
func (ss *ShardedStore) each(fn func(*Store) error) error {
	if err := ss.err(); err != nil {
		return err
	}
	errs := make([]error, len(ss.shards))
	var wg sync.WaitGroup
	for i, sh := range ss.shards {
		wg.Add(1)
		go func(i int, sh *Store) {
			defer wg.Done()
			errs[i] = fn(sh)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// err returns the sticky write-path failure, if any — the sharded
// store's own or the first failed shard's.
func (ss *ShardedStore) err() error {
	if p := ss.failure.Load(); p != nil {
		return *p
	}
	for _, sh := range ss.shards {
		if err := sh.err(); err != nil {
			return err
		}
	}
	return nil
}

// fail records the first sharded write-path failure. Reads keep serving
// the last consistent watermark; writes keep returning the error;
// reopening recovers.
func (ss *ShardedStore) fail(err error) {
	wrapped := fmt.Errorf("store: sharded write path failed: %w", err)
	ss.failure.CompareAndSwap(nil, &wrapped)
}

// Close closes every shard (in parallel), persists the router tail, and
// releases the directory lock. Like Store.Close, memtables are not
// flushed — their contents are durable in the per-shard WALs, and the
// interleave of anything the ROUTER log misses is durable in their
// sequence headers.
func (ss *ShardedStore) Close() error {
	if ss.closed.Swap(true) {
		return nil
	}
	// Close every shard unconditionally — unlike Flush/Compact, Close
	// must release goroutines, WAL handles and directory locks even
	// after a sticky write-path failure, or the directory could never
	// be reopened in this process.
	errs := make([]error, len(ss.shards))
	var wg sync.WaitGroup
	for i, sh := range ss.shards {
		wg.Add(1)
		go func(i int, sh *Store) {
			defer wg.Done()
			errs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	var err error
	for _, e := range errs {
		if e != nil {
			err = e
			break
		}
	}
	ss.logMu.Lock()
	if perr := ss.persistRouterLocked(); err == nil {
		err = perr
	}
	if cerr := ss.log.close(); err == nil {
		err = cerr
	}
	ss.logMu.Unlock()
	if ss.unlock != nil {
		ss.unlock()
	}
	return err
}

// Snapshot returns an immutable, consistent view of the global sequence
// at the current watermark: every shard's pinned view, cut at the shard's
// element count at the watermark, stitched by the router — or, with one
// shard, that shard's view cut at the watermark, with no router at all. It
// stays valid for the life of the process regardless of concurrent
// appends, flushes and compactions on any shard. Like Store.Snapshot, the
// store pins one view per visible state — here the watermark and every
// shard's own pinned view — and returns it until one of them changes.
func (ss *ShardedStore) Snapshot() *Snapshot {
	w := ss.router.watermark.Load()
	if v := ss.view.Load(); v != nil && v.n == int(w) && ss.pins(v) {
		return v
	}
	v := &Snapshot{n: int(w), schema: ss.schema,
		base: make([]*shardView, len(ss.shards)), shards: make([]*shardView, len(ss.shards))}
	if len(ss.shards) > 1 {
		v.r = ss.router
	}
	for i, sh := range ss.shards {
		v.base[i] = sh.Snapshot().shards[0]
		v.shards[i] = v.base[i].prefixed(v.cut(i, v.n))
	}
	ss.view.Store(v)
	for i, sh := range ss.shards {
		if sh.state.Load() != v.base[i].state {
			// A shard published meanwhile and its retire call may have
			// come before the store above; see Store.Snapshot.
			ss.view.CompareAndSwap(v, nil)
			break
		}
	}
	return v
}

// pins reports whether v was cut from the shards' current pinned views.
func (ss *ShardedStore) pins(v *Snapshot) bool {
	for i, sh := range ss.shards {
		if sh.Snapshot().shards[0] != v.base[i] {
			return false
		}
	}
	return true
}

// ShardCount returns the partition count.
func (ss *ShardedStore) ShardCount() int { return len(ss.shards) }

// ShardLen returns the element count of shard i (flushed + memtable).
func (ss *ShardedStore) ShardLen(i int) int { return ss.shards[i].Len() }

// ShardMemLen returns the memtable element count of shard i.
func (ss *ShardedStore) ShardMemLen(i int) int { return ss.shards[i].MemLen() }

// ShardGenerations lists the persisted generations of shard i.
func (ss *ShardedStore) ShardGenerations(i int) []GenInfo { return ss.shards[i].Generations() }

// Generations lists the persisted generations of all shards, in shard
// order. GenInfo IDs name files within each shard's own subdirectory,
// so ids can repeat across shards.
func (ss *ShardedStore) Generations() []GenInfo {
	var out []GenInfo
	for _, sh := range ss.shards {
		out = append(out, sh.Generations()...)
	}
	return out
}

// MemLen returns the summed memtable element count across shards.
func (ss *ShardedStore) MemLen() int {
	total := 0
	for _, sh := range ss.shards {
		total += sh.MemLen()
	}
	return total
}

// The wavelettrie.StringIndex surface, each call served by the current
// pinned cross-shard view.

// Len returns the number of visible elements in the global sequence.
func (ss *ShardedStore) Len() int { return int(ss.router.watermark.Load()) }

// AlphabetSize returns the number of distinct strings stored — the sum
// of per-shard counts, exact because pickShard keeps per-shard alphabets
// disjoint. Each shard's count is a walk of its tries' shapes
// (Snapshot.AlphabetSize has the cost): ask when the figure is wanted,
// not per request.
func (ss *ShardedStore) AlphabetSize() int { return ss.Snapshot().AlphabetSize() }

// Height returns the maximum trie height over all shards' segments.
func (ss *ShardedStore) Height() int {
	h := 0
	for _, sh := range ss.shards {
		if sh := sh.Height(); sh > h {
			h = sh
		}
	}
	return h
}

// SizeBits returns the summed in-memory footprint of all shards plus
// the router.
func (ss *ShardedStore) SizeBits() int {
	total := ss.router.info().Bits
	for _, sh := range ss.shards {
		total += sh.SizeBits()
	}
	return total
}

// Access returns the string at global position pos.
func (ss *ShardedStore) Access(pos int) string { return ss.Snapshot().Access(pos) }

// Rank counts occurrences of v in global positions [0, pos).
func (ss *ShardedStore) Rank(v string, pos int) int { return ss.Snapshot().Rank(v, pos) }

// Count returns the total number of occurrences of v.
func (ss *ShardedStore) Count(v string) int { return ss.Snapshot().Count(v) }

// Select returns the global position of the idx-th occurrence of v.
func (ss *ShardedStore) Select(v string, idx int) (int, bool) { return ss.Snapshot().Select(v, idx) }

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (ss *ShardedStore) RankPrefix(p string, pos int) int { return ss.Snapshot().RankPrefix(p, pos) }

// CountPrefix returns the total number of elements with byte prefix p.
func (ss *ShardedStore) CountPrefix(p string) int { return ss.Snapshot().CountPrefix(p) }

// SelectPrefix returns the global position of the idx-th element with
// byte prefix p.
func (ss *ShardedStore) SelectPrefix(p string, idx int) (int, bool) {
	return ss.Snapshot().SelectPrefix(p, idx)
}

// IteratePrefix streams the global positions of elements with byte
// prefix p in ascending order starting from the from-th match — a k-way
// merge over per-shard prefix streams; see Snapshot.IteratePrefix.
func (ss *ShardedStore) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	ss.Snapshot().IteratePrefix(p, from, fn)
}

// Schema returns the shards' shared column schema (nil when the store
// has no columns). The returned slice must not be modified.
func (ss *ShardedStore) Schema() []ColumnSpec { return ss.schema }

// Row returns the payload row at global position pos — served by the
// owning shard via the router's locate arithmetic.
func (ss *ShardedStore) Row(pos int) Row { return ss.Snapshot().Row(pos) }

// CountWhere counts positions matching a value prefix and numeric
// column predicates; see Snapshot.CountWhere.
func (ss *ShardedStore) CountWhere(prefix string, preds ...Pred) (int, error) {
	return ss.Snapshot().CountWhere(prefix, preds...)
}

// IterateWhere streams global positions matching a value prefix and
// column predicates in ascending order; see Snapshot.IterateWhere.
func (ss *ShardedStore) IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error {
	return ss.Snapshot().IterateWhere(prefix, from, preds, fn)
}

// RouterInfo reports how the interleave router is represented right
// now: the frozen-vs-tail chunk split and the footprint of each part.
func (ss *ShardedStore) RouterInfo() RouterInfo { return ss.router.info() }

// RouterProbe round-trips global position pos through the router's
// primitive operations — locate (access + rank fused) followed by
// selectShard — and returns the routed shard, the shard-local index,
// and the recovered global position (always pos again). It exists so the
// benchmark ladder's sharded.router_probe_ns rung can time the router in
// isolation, without the per-shard trie work that dominates a full
// snapshot read. pos must be below Len, like Access.
func (ss *ShardedStore) RouterProbe(pos int) (shard, local, roundTrip int) {
	shard, local = ss.router.locate(uint64(pos))
	return shard, local, ss.router.selectShard(shard, local)
}

// MarshalBinary exports a point-in-time snapshot of the whole global
// sequence as a single Frozen index — see Snapshot.MarshalBinary.
func (ss *ShardedStore) MarshalBinary() ([]byte, error) { return ss.Snapshot().MarshalBinary() }

// IsSharded reports whether dir holds a sharded store (a SHARDS
// manifest) — for tools choosing between Open and OpenSharded.
func IsSharded(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, shardsName))
	return err == nil
}
