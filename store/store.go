package store

import (
	"errors"
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

	// MaxShards caps the partition count of a Store (shard ids are
	// stored as single bytes in the ROUTER log).
	MaxShards = 256
)

// ShardedOptions tune a Store opened with OpenSharded. The zero value
// (or a nil pointer) adopts whatever layout the directory holds.
type ShardedOptions struct {
	// Shards is the partition count, fixed at creation. 0 adopts the
	// directory's count — a SHARDS manifest's, 1 for a flat store, and a
	// flat store for an empty directory. A count ≥ 1 on an empty
	// directory creates a SHARDS layout of that many shards; a count
	// that disagrees with an existing directory is refused. Max
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

// Store is a durable, concurrently readable string sequence held in
// N ≥ 1 shards, each a full engine — its own WAL, memtable, frozen
// Wavelet Trie generations, flusher and compactor (see shard) — stitched
// together by Snapshot.
//
// A directory without a SHARDS file is a flat store: one shard, which is
// the directory itself, and no router — no value is hashed, no sequence
// number taken, and Snapshot is the shard's own pinned view. A SHARDS
// directory hash-partitions the sequence across shard-NNN
// subdirectories, so appends from many writers fan out across per-shard
// locks and flush/compaction proceed per shard, while reads see one
// logical sequence in global append order: a shared router records which
// shard owns each global position (the interleave), and snapshots stitch
// per-shard answers back together by offset arithmetic over it — see
// Snapshot and DESIGN.md §7.
//
// All methods are safe for concurrent use. The query methods satisfy
// wavelettrie.StringIndex, each call served by the current pinned view
// (see Snapshot); take an explicit Snapshot to hold one view across
// several queries.
//
// Visibility: an Append is visible to new snapshots once it (and, with
// a router, every append sequenced before it) has returned — a
// straggling concurrent appender briefly holds back the watermark, never
// the data.
type Store struct {
	dir    string
	shards []*shard
	schema []ColumnSpec // the shards' shared column schema
	unlock func()       // releases the root directory lock

	// The interleave and what serves it; router is nil exactly when the
	// directory has no SHARDS file.
	router *router
	seq    atomic.Uint64            // next global sequence number
	view   atomic.Pointer[Snapshot] // the pinned cross-shard view, if a reader has built it

	logMu     sync.Mutex // guards the ROUTER log, persisted and logErr
	log       *wal
	persisted uint64 // router entries durably in the ROUTER log
	logErr    error  // sticky ROUTER append/commit failure: the file may
	// hold a partially acknowledged suffix, so retrying would duplicate
	// claims and scramble the recovered order — once broken, never
	// append again (recovery re-derives the tail from WAL headers)

	failure atomic.Pointer[error]
	closed  atomic.Bool
}

// Store serves the whole read surface of the root package's string
// interface (plus Append, Flush, Compact); keep that contract honest.
var _ wavelettrie.StringIndex = (*Store)(nil)

// errClosed reports an operation on a closed store. It is distinguished
// from write-path failures so a Close racing a compaction does not mark
// the store failed.
var errClosed = errors.New("store: closed")

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

// Open opens the store in dir, creating a flat one if dir is empty,
// whatever layout dir holds: it is OpenSharded with Shards 0.
func Open(dir string, opts *Options) (*Store, error) {
	o := &ShardedOptions{}
	if opts != nil {
		o.Store = *opts
	}
	return OpenSharded(dir, o)
}

// OpenSharded opens the store in dir, creating it if empty (see
// ShardedOptions.Shards for the layout created). Every shard replays its
// WAL tail: torn or corrupt trailing records are truncated, every
// complete acknowledged record is reapplied. With a SHARDS manifest the
// shards recover in parallel and the global interleave is rebuilt from
// the ROUTER log plus the sequence headers in each shard's WAL tail,
// then rewritten fresh; a manifest naming a partitioner other than the
// FNV-1a routing every store uses is refused. A refused open leaves the
// directory as it was.
func OpenSharded(dir string, opts *ShardedOptions) (*Store, error) {
	var o ShardedOptions
	if opts != nil {
		o = *opts
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return nil, fmt.Errorf("store: %d shards outside 1..%d", o.Shards, MaxShards)
	}
	// A shard subdirectory must not be opened on its own: its flushed
	// records' interleave lives in the parent's ROUTER log, and
	// header-less appends through a flat handle would poison the next
	// open of the parent. (A fully-flushed shard has no header-carrying
	// WAL records left, so the replay-time check in openShard cannot
	// catch it.) Only shard-named subdirectories are refused — an
	// unrelated store merely sitting next to a SHARDS file is none of our
	// business.
	if parent := filepath.Dir(filepath.Clean(dir)); parent != dir && isShardDirName(filepath.Base(filepath.Clean(dir))) {
		if _, err := os.Stat(filepath.Join(parent, shardsName)); err == nil {
			return nil, fmt.Errorf("store: %s is a shard of the store in %s; open the parent", dir, parent)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
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

	count, routed, err := loadShardsManifest(dir, o.Shards)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, unlock: unlock}
	if !routed {
		sh, err := openShard(dir, &o.Store, s)
		if err != nil {
			return nil, err
		}
		s.shards, s.schema = []*shard{sh}, sh.schema
		ok = true
		return s, nil
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
	s.router = newRouter(count)
	s.shards = make([]*shard, count)
	errs := make([]error, count)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.shards[i], errs[i] = openShard(filepath.Join(dir, shardDirName(i)), &o.Store, s)
		}(i)
	}
	wg.Wait()
	closeOpened := func() {
		for _, sh := range s.shards {
			if sh != nil {
				sh.close()
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
	s.schema = s.shards[0].schema
	for i, sh := range s.shards {
		if !schemaEqual(sh.schema, s.schema) {
			closeOpened()
			return nil, fmt.Errorf("store: shard %d pins a different column schema than shard 0", i)
		}
	}

	order, newTails, err := reconcile(claimed, s.shards)
	if err != nil {
		closeOpened()
		return nil, err
	}
	s.router.bulkLoad(order)
	s.seq.Store(uint64(len(order)))
	// The recovered order is renumbered compactly (lost records close
	// up), so the sequence numbers retained in each shard's replayed
	// memtable must be renumbered too — otherwise a pre-crash number
	// beyond the new length would make the flush barrier wait for a
	// watermark that can never come, and fresh appends would break
	// per-shard monotonicity. The on-disk WAL headers keep their old
	// values; the next recovery drops them by count (they are covered
	// by the rewritten ROUTER log), never by value.
	for i, sh := range s.shards {
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
	s.log = log
	s.persisted = uint64(len(order))
	ok = true
	return s, nil
}

// loadShardsManifest settles dir's layout against the requested shard
// count (0: adopt) and returns the count and whether the store is routed
// (has a SHARDS manifest). A directory without SHARDS is flat — one
// shard, the directory itself — unless it is empty and a count was
// asked for, in which case SHARDS is created. A count that disagrees
// with the directory is refused before anything is written.
func loadShardsManifest(dir string, shards int) (int, bool, error) {
	path := filepath.Join(dir, shardsName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil || shards == 0 {
			if shards > 1 {
				return 0, false, fmt.Errorf("store: %s holds a flat store of 1 shard, options ask for %d (the count is fixed at creation)", dir, shards)
			}
			return 1, false, nil
		}
		m := shardsManifest{shards: shards, partitioner: partitionerName}
		if err := writeFileAtomic(dir, shardsName, encodeShards(m)); err != nil {
			return 0, false, err
		}
		return shards, true, nil
	}
	if err != nil {
		return 0, false, err
	}
	m, err := parseShards(data)
	if err != nil {
		return 0, false, fmt.Errorf("store: %s: %w", path, err)
	}
	if shards != 0 && shards != m.shards {
		return 0, false, fmt.Errorf("store: store has %d shards, options ask for %d (the count is fixed at creation)", m.shards, shards)
	}
	return m.shards, true, nil
}

// reconcile rebuilds the global interleave after an open: the ROUTER
// log claims a prefix of it; each claimed entry is kept if its shard
// still holds the record (a shard surviving a crash always holds a
// prefix of its local sequence, so the j-th claimed entry of a shard is
// its j-th local record), and the per-shard WAL tails — ordered by
// their sequence headers — supply everything the log had not yet
// covered. The result is the surviving subsequence in original append
// order: a crash without Sync may lose a per-shard suffix of
// acknowledged appends (exactly a flat store's contract, per shard),
// never reorder, and with Sync every acknowledged append survives.
// It also returns, per shard, the renumbered sequence list of the
// shard's unflushed records (their positions in the returned order) —
// the positions-equal-sequence-numbers invariant every open restores.
func reconcile(claimed []byte, shards []*shard) (order []byte, newTails [][]uint64, err error) {
	n := len(shards)
	c := make([]int, n)          // surviving local counts
	tails := make([][]uint64, n) // unflushed on-disk sequence numbers, local order
	flushed := make([]int, n)
	for s, st := range shards {
		c[s] = st.snapshot().Len()
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

// Append adds v at the end of the sequence: WAL first (fsynced when
// Options.Sync is set), then the memtable. It returns only after the
// write is visible to new snapshots. With a router, v goes to its
// shard: appends to different shards contend only on the shared
// sequence counter (one atomic add); appends to the same shard serialize
// on that shard's lock.
func (s *Store) Append(v string) error { return s.AppendRow(v, nil) }

// AppendRow is Append carrying a payload row: row[i] is the cell of
// schema column i (nil row = all NULL). The row rides in the same WAL
// record as the value, to the same shard, so its durability and
// crash-recovery guarantees are exactly Append's — it is AppendBatchRows
// of one value, the same bytes in the log and the same path through the
// store.
func (s *Store) AppendRow(v string, row Row) error {
	return s.AppendBatchRows([]string{v}, []Row{row})
}

// AppendBatch adds vs at the end of the sequence, atomically with
// respect to snapshots and flushes: the whole batch becomes visible at
// once, in argument order, with no other append interleaved inside it.
// Each involved shard gets one lock acquisition, one WAL write and (with
// Options.Sync) one fsync for its whole part of the batch, regardless of
// its size — the group-commit amortization the network server's write
// path batches into. With a router the involved shards' locks are taken
// in shard order (so concurrent batches cannot deadlock) and sequence
// numbers are allocated as one block in argument order while they are
// held. An empty batch is a no-op.
func (s *Store) AppendBatch(vs []string) error { return s.AppendBatchRows(vs, nil) }

// AppendBatchRows is AppendBatch carrying payload rows: rows, when
// non-nil, is parallel to vs (individual entries may be nil = all
// NULL). The batch keeps AppendBatch's atomicity and group-commit cost.
func (s *Store) AppendBatchRows(vs []string, rows []Row) error {
	if len(vs) == 0 {
		return nil
	}
	if rows != nil && len(rows) != len(vs) {
		return fmt.Errorf("store: %d rows for %d values", len(rows), len(vs))
	}
	if err := s.err(); err != nil {
		return err
	}
	if s.closed.Load() {
		return errClosed
	}
	if s.router == nil {
		return s.shards[0].appendBatch(vs, rows)
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
		if err := validateRow(s.schema, row); err != nil {
			return err
		}
		if n := walRecordBound(v, row); n > walMaxRecord {
			return fmt.Errorf("store: WAL record of %d bytes exceeds limit", n)
		}
		counts[pickShard(v, len(s.shards))]++
	}
	// One entry per involved shard, in shard order (the lock order), each a
	// span of the batch regrouped by shard with argument order kept inside
	// it; counts turns into each shard's next offset. A batch on one shard
	// is its own regrouping.
	var few [2]shardBatch
	batches, off := few[:0], 0
	for sh, c := range counts[:len(s.shards)] {
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
		sh := s.shards[b.shard]
		sh.appendMu.Lock()
		err := sh.err()
		if sh.closed.Load() {
			err = errClosed
		}
		if err != nil {
			s.unlockShards(batches[:k+1])
			return err
		}
	}
	// The batch's sequence numbers are one block in argument order: no
	// appender slips inside the batch, and none into the involved shards
	// (their locks are held), so per-shard WAL order stays sequence order.
	base := s.seq.Add(uint64(len(vs))) - uint64(len(vs))
	for i, v := range vs {
		j := i
		if len(batches) > 1 {
			sh := pickShard(v, len(s.shards))
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
		n, err := s.shards[b.shard].appendBatchLocked(gvs[b.off:b.off+b.n], bRows, seqs[b.off:b.off+b.n])
		if err != nil {
			s.unlockShards(batches)
			if err != errClosed {
				s.fail(err)
			}
			return err
		}
		b.memLen = n
	}
	s.unlockShards(batches)

	for _, b := range batches {
		for _, seq := range seqs[b.off : b.off+b.n] {
			s.router.fill(seq, b.shard)
		}
	}
	for _, b := range batches {
		s.shards[b.shard].nudgeFlush(b.memLen)
	}
	return nil
}

// shardBatch is one involved shard's span [off, off+n) of a routed batch
// regrouped by shard, and the memtable length its group commit left.
type shardBatch struct {
	shard, off, n int
	memLen        int64
}

// unlockShards releases the append locks of bs's shards, last first.
func (s *Store) unlockShards(bs []shardBatch) {
	for k := len(bs) - 1; k >= 0; k-- {
		s.shards[bs[k].shard].appendMu.Unlock()
	}
}

// sealBarrier runs before a routed shard's flush may persist (and
// eventually delete the WAL of) records up to maxSeq: the ROUTER log
// must durably cover every global position through maxSeq. It waits out
// in-flight appends still below maxSeq, then appends and syncs the
// missing router suffix.
func (s *Store) sealBarrier(maxSeq uint64) error {
	need := maxSeq + 1
	for s.router.watermark.Load() < need {
		if err := s.err(); err != nil {
			return err
		}
		if s.closed.Load() {
			return errClosed
		}
		time.Sleep(20 * time.Microsecond)
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	if s.persisted >= need {
		return nil
	}
	return s.persistRouterLocked()
}

// persistRouterLocked appends router entries [persisted, watermark) to
// the ROUTER log and syncs. Caller holds logMu. A failure poisons the
// log: part of the range may already be in the file, so a retry would
// append duplicate claims and silently scramble the recovered order —
// instead the store stays on WAL-header recovery for the tail.
func (s *Store) persistRouterLocked() error {
	if s.logErr != nil {
		return s.logErr
	}
	w := s.router.watermark.Load()
	if w <= s.persisted {
		return nil
	}
	buf := make([]byte, 0, w-s.persisted)
	for g := s.persisted; g < w; g++ {
		buf = append(buf, byte(s.router.at(g)))
	}
	if err := appendRouterIDs(s.log, buf); err != nil {
		s.logErr = err
		return err
	}
	if err := s.log.commit(); err != nil {
		s.logErr = err
		return err
	}
	s.persisted = w
	return nil
}

// Flush seals every shard's memtable into a frozen generation (shards in
// parallel), rotates its WAL, rewrites its manifest and deletes the
// superseded log. A reader holding a snapshot from before the flush
// keeps its view; new snapshots see the same sequence served from the
// new generations. Flushing an empty memtable is a no-op.
func (s *Store) Flush() error {
	if err := s.err(); err != nil {
		return err
	}
	return s.each((*shard).flush)
}

// Compact merges each shard's generations down to one, shards in
// parallel. Readers holding snapshots keep their old generation list
// (the loaded tries stay in memory even after their files are deleted);
// new snapshots see the merged generations.
func (s *Store) Compact() error {
	if err := s.err(); err != nil {
		return err
	}
	return s.each(func(sh *shard) error { return sh.compact(1) })
}

// each runs fn over all shards — in parallel when there are several —
// and returns the first error.
func (s *Store) each(fn func(*shard) error) error {
	if len(s.shards) == 1 {
		return fn(s.shards[0])
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
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

// err returns the sticky write-path failure, if any — the store's own
// (a failed routed batch) or the first failed shard's.
func (s *Store) err() error {
	if p := s.failure.Load(); p != nil {
		return *p
	}
	for _, sh := range s.shards {
		if err := sh.err(); err != nil {
			return err
		}
	}
	return nil
}

// fail records the first routed write-path failure. Reads keep serving
// the last consistent watermark; writes keep returning the error;
// reopening recovers.
func (s *Store) fail(err error) {
	wrapped := fmt.Errorf("store: sharded write path failed: %w", err)
	s.failure.CompareAndSwap(nil, &wrapped)
}

// Close closes every shard (in parallel), persists the router tail, and
// releases the directory lock. Memtables are not flushed — their
// contents are durable in the shards' WALs (and the interleave of
// anything the ROUTER log misses in their sequence headers) and replay
// on the next open. Appends concurrent with Close either complete first
// or fail closed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Close every shard unconditionally — unlike Flush/Compact, Close
	// must release goroutines, WAL handles and directory locks even
	// after a sticky write-path failure, or the directory could never
	// be reopened in this process.
	err := s.each((*shard).close)
	if s.router != nil {
		s.logMu.Lock()
		if perr := s.persistRouterLocked(); err == nil {
			err = perr
		}
		if cerr := s.log.close(); err == nil {
			err = cerr
		}
		s.logMu.Unlock()
	}
	s.unlock()
	return err
}

// Snapshot returns an immutable, consistent view of the current
// sequence; it stays valid (and unchanged) for the life of the process,
// regardless of concurrent appends, flushes and compactions. The store
// pins one view per visible state: while nothing is appended, sealed,
// flushed or compacted every call returns the same *Snapshot — a pointer
// load — and the first call after a change builds the next one. Every
// append acknowledged before the call is visible in the view it returns.
//
// A flat store's view is its shard's own. With a router the view is
// every shard's pinned view, cut at the shard's element count at the
// watermark and stitched by the router (with one shard, that shard's
// view cut at the watermark, with no router at all), pinned for as long
// as the watermark and every shard's own pinned view stay unchanged.
func (s *Store) Snapshot() *Snapshot {
	if s.router == nil {
		return s.shards[0].snapshot()
	}
	w := s.router.watermark.Load()
	if v := s.view.Load(); v != nil && v.n == int(w) && s.pins(v) {
		return v
	}
	v := &Snapshot{n: int(w), schema: s.schema,
		base: make([]*shardView, len(s.shards)), shards: make([]*shardView, len(s.shards))}
	if len(s.shards) > 1 {
		v.r = s.router
	}
	for i, sh := range s.shards {
		v.base[i] = sh.snapshot().shards[0]
		v.shards[i] = v.base[i].prefixed(v.cut(i, v.n))
	}
	s.view.Store(v)
	for i, sh := range s.shards {
		if sh.state.Load() != v.base[i].state {
			// A shard published meanwhile and its clearing of the view may
			// have come before the store above; see shard.snapshot.
			s.view.CompareAndSwap(v, nil)
			break
		}
	}
	return v
}

// pins reports whether v was cut from the shards' current pinned views.
func (s *Store) pins(v *Snapshot) bool {
	for i, sh := range s.shards {
		if sh.snapshot().shards[0] != v.base[i] {
			return false
		}
	}
	return true
}

// ShardCount returns the partition count (1 for a flat store).
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardLen returns the element count of shard i (flushed + memtable).
func (s *Store) ShardLen(i int) int { return s.shards[i].snapshot().Len() }

// ShardMemLen returns the memtable element count of shard i.
func (s *Store) ShardMemLen(i int) int { return s.shards[i].memLen() }

// ShardGenerations lists the persisted generations of shard i.
func (s *Store) ShardGenerations(i int) []GenInfo { return s.shards[i].generations() }

// Generations lists the persisted generations of all shards, each
// shard's in sequence order, in shard order. GenInfo IDs name files
// within each shard's own directory, so ids can repeat across shards.
func (s *Store) Generations() []GenInfo {
	var out []GenInfo
	for _, sh := range s.shards {
		out = append(out, sh.generations()...)
	}
	return out
}

// MemLen returns the element count currently in the memtables (appended
// but not yet flushed into a generation), summed across shards.
func (s *Store) MemLen() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.memLen()
	}
	return total
}

// The wavelettrie.StringIndex surface, each call served by the current
// pinned view.

// Len returns the number of elements in the sequence.
func (s *Store) Len() int { return s.Snapshot().Len() }

// AlphabetSize returns the number of distinct strings stored. The count
// is derived when asked for — a walk of the store's tries' shapes; see
// Snapshot.AlphabetSize for the cost — so ask when the figure is wanted,
// not per request.
func (s *Store) AlphabetSize() int { return s.Snapshot().AlphabetSize() }

// Height returns the maximum trie height over the store's segments.
func (s *Store) Height() int { return s.Snapshot().Height() }

// SizeBits returns the summed in-memory footprint of the store's
// segments in bits, plus the router's when the view has one.
func (s *Store) SizeBits() int { return s.Snapshot().SizeBits() }

// Access returns the string at position pos.
func (s *Store) Access(pos int) string { return s.Snapshot().Access(pos) }

// Rank counts occurrences of v in positions [0, pos).
func (s *Store) Rank(v string, pos int) int { return s.Snapshot().Rank(v, pos) }

// Count returns the total number of occurrences of v.
func (s *Store) Count(v string) int { return s.Snapshot().Count(v) }

// Select returns the position of the idx-th (0-based) occurrence of v.
func (s *Store) Select(v string, idx int) (int, bool) { return s.Snapshot().Select(v, idx) }

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (s *Store) RankPrefix(p string, pos int) int { return s.Snapshot().RankPrefix(p, pos) }

// CountPrefix returns the total number of elements with byte prefix p.
func (s *Store) CountPrefix(p string) int { return s.Snapshot().CountPrefix(p) }

// SelectPrefix returns the position of the idx-th element with prefix p.
func (s *Store) SelectPrefix(p string, idx int) (int, bool) { return s.Snapshot().SelectPrefix(p, idx) }

// IteratePrefix streams the positions of elements with byte prefix p in
// ascending order starting from the from-th match; see
// Snapshot.IteratePrefix.
func (s *Store) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	s.Snapshot().IteratePrefix(p, from, fn)
}

// Schema returns the store's pinned column schema (nil when the store
// has no columns). The returned slice must not be modified.
func (s *Store) Schema() []ColumnSpec { return s.schema }

// Row returns the payload row at position pos; see Snapshot.Row.
func (s *Store) Row(pos int) Row { return s.Snapshot().Row(pos) }

// CountWhere counts elements matching a string prefix and numeric
// predicates; see Snapshot.CountWhere.
func (s *Store) CountWhere(prefix string, preds ...Pred) (int, error) {
	return s.Snapshot().CountWhere(prefix, preds...)
}

// IterateWhere streams positions matching a prefix and predicates; see
// Snapshot.IterateWhere.
func (s *Store) IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error {
	return s.Snapshot().IterateWhere(prefix, from, preds, fn)
}

// MarshalBinary exports a point-in-time snapshot of the whole sequence
// as a single Frozen index in the unified persistence container —
// loadable with wavelettrie.LoadFrozen (or Load) anywhere, independent
// of the store directory. Cost is O(n) time, but the sequence is
// streamed through the freeze builder (two iteration passes over the
// snapshot), never materialized as a []string — peak extra memory is
// the output index, not input + output.
func (s *Store) MarshalBinary() ([]byte, error) { return s.Snapshot().MarshalBinary() }

// RouterInfo reports how the interleave router is represented right
// now: the frozen-vs-tail chunk split and the footprint of each part.
// It is zero for a flat store, which has no router.
func (s *Store) RouterInfo() RouterInfo {
	if s.router == nil {
		return RouterInfo{}
	}
	return s.router.info()
}

// RouterProbe round-trips position pos through the router's primitive
// operations — locate (access + rank fused) followed by selectShard —
// and returns the routed shard, the shard-local index, and the recovered
// position (always pos again; a flat store answers 0, pos, pos). It
// exists so the benchmark ladder's sharded.router_probe_ns rung can time
// the router in isolation, without the per-shard trie work that
// dominates a full snapshot read. pos must be below Len, like Access.
func (s *Store) RouterProbe(pos int) (shard, local, roundTrip int) {
	if s.router == nil {
		return 0, pos, pos
	}
	shard, local = s.router.locate(uint64(pos))
	return shard, local, s.router.selectShard(shard, local)
}
