package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	wavelettrie "repro"
	"repro/internal/obs"
)

// Options tune every shard of a Store. The zero value (or a nil pointer)
// selects the defaults below.
type Options struct {
	// FlushThreshold is the memtable element count that triggers an
	// automatic flush into a frozen generation. Default 1 << 14.
	FlushThreshold int
	// MaxGenerations is the generation count above which the background
	// compactor merges adjacent generations. Default 8.
	MaxGenerations int
	// Sync makes every Append fsync the WAL record before acknowledging;
	// with it off, durability of the last few appends is up to the OS
	// (Close and Flush always sync). Default off.
	Sync bool
	// DisableAutoFlush turns the background flusher/compactor off; the
	// memtable then grows until Flush or Compact is called explicitly.
	// Mostly for tests and benchmarks.
	DisableAutoFlush bool
	// Columns declares the store's payload column schema. The schema is
	// pinned in the manifest on first use and fixed for the store's
	// lifetime (like the shard layout): reopening with a different
	// schema fails; reopening with nil adopts the pinned one. Declaring
	// columns on an existing schema-less store pins them — data written
	// before then reads as all-NULL rows.
	Columns []ColumnSpec
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.FlushThreshold <= 0 {
		out.FlushThreshold = 1 << 14
	}
	if out.MaxGenerations <= 0 {
		out.MaxGenerations = 8
	}
	return out
}

// storeState is the immutable root the readers load atomically: the
// persisted generations, at most one sealed-but-not-yet-persisted
// memtable (mid-flush), and the live memtable. State values are replaced
// wholesale, never mutated.
type storeState struct {
	gens   []*generation
	sealed *memtable
	mem    *memtable
}

// shard is one partition of a Store and the whole engine of one
// directory: WAL + memtable in front, frozen Wavelet Trie generations
// behind, its own flusher and compactor, and one pinned view per state.
// A flat store's one shard is the store directory itself; a SHARDS
// store's shards live in shard-NNN subdirectories.
//
// With a router in the parent, the parent allocates the global sequence
// numbers itself, with the shard's append lock held (so per-shard WAL
// order always agrees with sequence order), and hands them to
// appendBatchLocked; a flush then waits on the parent's seal barrier
// before it persists sealed records (the ROUTER log must durably cover
// their interleave before their WAL becomes deletable).
//
// Every generation in a shard's state came online through
// loadGeneration: Open loads the manifest's, and a flush or compaction
// loads the file it just wrote.
type shard struct {
	dir    string
	opts   Options
	parent *Store

	appendMu  sync.Mutex // serializes appenders and the memtable swap
	adminMu   sync.Mutex // serializes flush, compaction commits, close
	compactMu sync.Mutex // serializes whole compactions; taken before adminMu, never while holding it

	state atomic.Pointer[storeState] // replaced only through publish
	view  atomic.Pointer[Snapshot]   // the pinned view of the current state, if a reader has built it

	// schema is the pinned column schema (possibly empty), fixed at open.
	schema []ColumnSpec

	// Guarded by adminMu.
	nextID uint64 // next unallocated file id
	walID  uint64 // id of the live memtable's WAL

	failure atomic.Pointer[error] // sticky write-path failure

	flushCh   chan struct{}
	compactCh chan struct{}
	stopCh    chan struct{}
	bg        sync.WaitGroup
	closed    atomic.Bool
	unlock    func() // releases the directory lock; nil when the parent holds it
}

// routed reports whether the parent interleaves this shard with others
// through a router.
func (s *shard) routed() bool { return s.parent.router != nil }

// openShard opens the shard in dir, creating it if empty, and replays
// the WAL tail: torn or corrupt trailing records are truncated, every
// complete acknowledged record is reapplied. If a crash interrupted a
// flush, more than one log replays; openShard returns the superseded
// ones, which the parent's open folds into a generation (checkpoint)
// before it returns. A shard in a subdirectory locks it; a flat store's
// shard is the directory the parent has locked.
func openShard(dir string, opts *Options, parent *Store) (*shard, []uint64, error) {
	s := &shard{
		dir:       dir,
		opts:      opts.withDefaults(),
		parent:    parent,
		flushCh:   make(chan struct{}, 1),
		compactCh: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	if dir != parent.dir {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		unlock, err := lockDir(dir)
		if err != nil {
			return nil, nil, err
		}
		s.unlock = unlock
	}
	ok := false
	defer func() {
		if ok {
			return
		}
		if st := s.state.Load(); st != nil && st.mem.wal != nil {
			st.mem.wal.close()
		}
		if s.unlock != nil {
			s.unlock()
		}
	}()
	os.Remove(filepath.Join(dir, manifestTmpName)) // stray from a crashed rewrite

	m, fresh, err := s.loadManifest()
	if err != nil {
		return nil, nil, err
	}
	s.schema = m.schema
	// Generations are independent files; load them in parallel (recovery
	// time is dominated by snapshot validation, which is CPU-bound).
	gens := make([]*generation, len(m.gens))
	errs := make([]error, len(m.gens))
	var wg sync.WaitGroup
	for i, meta := range m.gens {
		wg.Add(1)
		go func(i int, meta genMeta) {
			defer wg.Done()
			gens[i], errs[i] = loadGeneration(dir, meta, s.schema)
		}(i, meta)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	s.nextID, s.walID = m.nextID, m.walID
	s.removeOrphanGens(m.gens)

	walIDs, err := s.findWALs(m.walID)
	if err != nil {
		return nil, nil, err
	}
	if fresh || len(walIDs) == 0 {
		walIDs = []uint64{m.walID}
	}

	// Replay every WAL at or after the manifest's: more than one exists
	// only when a crash interrupted a flush between the WAL rotation and
	// the old log's deletion.
	mem := newMemtable(nil, s.schema)
	s.publish(&storeState{gens: gens, mem: mem})
	var lastWAL *wal
	for i, id := range walIDs {
		records, w, err := recoverWAL(filepath.Join(dir, walFileName(id)), s.opts.Sync)
		if err != nil {
			return nil, nil, err
		}
		// One batch per log, through the body every append takes. seqs
		// collects the sequence headers found; the check below refuses a
		// log that carries them on some records only.
		vs, rows := make([]string, len(records)), make([]Row, len(records))
		var seqs []uint64
		for j, rec := range records {
			v, seq, hasSeq, row := walRecord(rec)
			if row != nil && validateRow(s.schema, row) != nil {
				// A row the pinned schema cannot hold (a schema can only be
				// pinned before any row is written, so this is corruption
				// that happened to checksum): drop the cells, keep the
				// acknowledged value.
				row = nil
			}
			vs[j], rows[j] = v, row
			if hasSeq {
				seqs = append(seqs, seq)
			}
		}
		mem.applyBatch(vs, rows, seqs)
		if i == len(walIDs)-1 {
			lastWAL = w
		} else {
			w.close()
		}
	}
	mem.wal = lastWAL
	if id := walIDs[len(walIDs)-1]; id != s.walID {
		s.walID = id
	}
	if s.nextID <= s.walID {
		s.nextID = s.walID + 1
	}

	// A flat store must never see routed records (a shard directory
	// opened on its own would lose its sequence headers at the first
	// checkpoint), and a routed shard must carry a header on every
	// unflushed record or recovery cannot interleave them.
	if !s.routed() && len(mem.seqs) > 0 {
		return nil, nil, fmt.Errorf("store: %s is a shard of a sharded store; open its parent directory", dir)
	}
	if s.routed() && len(mem.seqs) != int(mem.n.Load()) {
		return nil, nil, fmt.Errorf("store: shard %s: %d of %d unflushed records lack sequence headers",
			dir, int(mem.n.Load())-len(mem.seqs), mem.n.Load())
	}

	if !s.opts.DisableAutoFlush {
		// Flusher and compactor are separate goroutines: a long merge in
		// the compactor must not starve flush servicing, or the memtable
		// would grow unboundedly for the merge's duration — the stall the
		// two-phase design exists to remove.
		s.bg.Add(2)
		go s.background()
		go s.compactor()
	}
	liveShards.add(s)
	ok = true
	return s, walIDs[:len(walIDs)-1], nil
}

// checkpoint folds the logs an interrupted flush left behind (stale, all
// older than the live one), whose records the open replayed into the
// memtable, into a generation, so the on-disk layout is the steady-state
// one before the store's open returns. A routed shard's parent calls it
// only after reconciliation has read the replayed records' sequence
// numbers and the rewritten ROUTER log covers them all.
func (s *shard) checkpoint(stale []uint64) error {
	if len(stale) == 0 {
		return nil
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	return s.flushLocked(append(stale, s.walID))
}

// loadManifest reads dir/MANIFEST, writing a fresh one for a new shard,
// and settles the column schema: a fresh shard pins Options.Columns; an
// existing schema-less shard opened with columns pins them (rewriting
// the manifest — prior generations have no column section and read
// all-NULL); an existing schema must match Options.Columns exactly, or
// be adopted when the options carry none.
func (s *shard) loadManifest() (manifest, bool, error) {
	if err := validateSchema(s.opts.Columns); err != nil {
		return manifest{}, false, err
	}
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		m := manifest{nextID: 2, walID: 1, schema: s.opts.Columns}
		if err := writeManifest(s.dir, m); err != nil {
			return m, false, err
		}
		return m, true, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return m, false, err
	}
	switch {
	case len(s.opts.Columns) == 0:
		// Adopt whatever is pinned.
	case len(m.schema) == 0:
		m.schema = s.opts.Columns
		if err := writeManifest(s.dir, m); err != nil {
			return m, false, err
		}
	case !schemaEqual(m.schema, s.opts.Columns):
		return m, false, fmt.Errorf("store: %s pins a different column schema than Options.Columns (schemas are fixed at creation)", s.dir)
	}
	return m, false, nil
}

// removeOrphanGens deletes generation files the manifest does not
// reference — leftovers of a crash between a generation write and its
// manifest commit (or between a compaction commit and the old files'
// deletion) — so repeated crashes cannot leak disk space. Safe because
// the manifest is the sole root: an unreferenced file can never become
// reachable again.
func (s *shard) removeOrphanGens(metas []genMeta) {
	live := make(map[string]bool, len(metas))
	for _, meta := range metas {
		live[genFileName(meta.id)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "gen-") && !live[name] &&
			(strings.HasSuffix(name, ".wt") || strings.HasSuffix(name, ".wt.tmp")) {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// findWALs lists the WAL ids present in dir that are at or after from,
// ascending, and deletes stale ones from before it.
func (s *shard) findWALs(from uint64) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var id uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &id); err != nil {
			continue
		}
		if id < from {
			os.Remove(filepath.Join(s.dir, name)) // superseded by the manifest
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// appendBatch is a flat store's whole append: validate the rows, then
// one appendBatchLocked under the append lock. No value is hashed and
// no sequence number taken.
func (s *shard) appendBatch(vs []string, rows []Row) error {
	for _, row := range rows {
		if err := validateRow(s.schema, row); err != nil {
			return err
		}
	}
	s.appendMu.Lock()
	if s.closed.Load() {
		s.appendMu.Unlock()
		return errClosed
	}
	n, err := s.appendBatchLocked(vs, rows, nil)
	s.appendMu.Unlock()
	if err != nil {
		return err
	}
	s.nudgeFlush(n)
	return nil
}

// appendBatchLocked is the one append body, a flat store's and a routed
// shard's, for one value or many: frame every WAL
// record straight into one buffer, write it with a single write+fsync,
// then apply the whole batch to the memtable under one lock — O(|v|) and
// a trie insert per value, nothing that reads the rest of the store.
// rows and seqs, when non-nil, carry the records' payload rows and global
// sequence numbers (routed shards), parallel to vs; rows must be
// pre-validated. Returns the memtable length after the batch. Caller
// holds appendMu.
func (s *shard) appendBatchLocked(vs []string, rows []Row, seqs []uint64) (int64, error) {
	st := s.state.Load()
	rowAt := func(i int) Row {
		if rows == nil {
			return nil
		}
		return rows[i]
	}
	size := 0
	for i, v := range vs {
		size += walRecordBound(v, rowAt(i))
	}
	buf := make([]byte, 0, size)
	for i, v := range vs {
		var seq uint64
		if seqs != nil {
			seq = seqs[i]
		}
		var err error
		if buf, err = appendWALRecord(buf, v, seq, seqs != nil, rowAt(i)); err != nil {
			return 0, err
		}
	}
	if err := st.mem.wal.appendFramed(buf, len(vs)); err != nil {
		s.fail(err)
		return 0, err
	}
	st.mem.applyBatch(vs, rows, seqs)
	return st.mem.n.Load(), nil
}

// nudgeFlush wakes the background flusher once the memtable length n
// crosses the threshold.
func (s *shard) nudgeFlush(n int64) {
	if int(n) >= s.opts.FlushThreshold && !s.opts.DisableAutoFlush {
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
	}
}

// recoveredTail returns the sequence numbers of the unflushed records
// replayed at open, in local order — consumed once by the sharded
// reconciliation before any new appends.
func (s *shard) recoveredTail() []uint64 {
	mem := s.state.Load().mem
	mem.mu.RLock()
	defer mem.mu.RUnlock()
	return append([]uint64(nil), mem.seqs...)
}

// renumberTail replaces the retained sequence numbers of the replayed
// memtable records with their post-reconciliation values (positions in
// the compacted global order) — open-time only, before any concurrent
// use. The on-disk WAL headers keep their old values; the rewritten
// ROUTER log covers those records, so recovery drops them by count and
// never reads the stale numbers.
func (s *shard) renumberTail(seqs []uint64) {
	mem := s.state.Load().mem
	mem.mu.Lock()
	defer mem.mu.Unlock()
	if len(seqs) != len(mem.seqs) {
		panic(fmt.Sprintf("store: renumberTail got %d numbers for %d records (internal error)", len(seqs), len(mem.seqs)))
	}
	copy(mem.seqs, seqs)
}

// background runs the flusher until close, nudging the compactor after
// every flush. Never compact after a failed flush — a manifest written
// then would carry the advanced walID while the sealed memtable's
// records are in no generation, and the next open would delete the WAL
// that still holds them; the compactor re-checks err() itself.
func (s *shard) background() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.flushCh:
			s.adminMu.Lock()
			if !s.closed.Load() && s.err() == nil {
				st := s.state.Load()
				if int(st.mem.n.Load()) >= s.opts.FlushThreshold {
					if err := s.flushLocked([]uint64{s.walID}); err != nil {
						s.fail(err)
					}
				}
			}
			s.adminMu.Unlock()
			select {
			case s.compactCh <- struct{}{}:
			default:
			}
		}
	}
}

// compactor applies the Options.MaxGenerations policy whenever nudged.
// It runs in its own goroutine so a long merge never stops the flusher
// from servicing flushCh — appends stay bounded by FlushThreshold even
// while a large compaction is in flight.
func (s *shard) compactor() {
	defer s.bg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.compactCh:
			if s.err() == nil && !s.closed.Load() {
				if err := s.compactTo(s.opts.MaxGenerations); err != nil && err != errClosed {
					s.fail(err)
				}
			}
		}
	}
}

// flush seals the current memtable into a frozen generation, rotates the
// WAL, rewrites the manifest and deletes the superseded log. A reader
// holding a snapshot from before the flush keeps its view; new snapshots
// see the same sequence served from the new generation. Flushing an
// empty memtable is a no-op.
func (s *shard) flush() error {
	if err := s.err(); err != nil {
		return err
	}
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	if s.closed.Load() {
		return errClosed
	}
	if s.state.Load().mem.n.Load() == 0 {
		return nil
	}
	if err := s.flushLocked([]uint64{s.walID}); err != nil {
		s.fail(err)
		return err
	}
	return nil
}

// flushLocked does the real flush work; the caller holds adminMu.
// oldWALs are the log files whose contents end up covered by the new
// generation and manifest, deleted last.
func (s *shard) flushLocked(oldWALs []uint64) error {
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("flush")
	newWALID := s.nextID
	s.nextID++
	w, err := createWAL(filepath.Join(s.dir, walFileName(newWALID)), s.opts.Sync)
	if err != nil {
		return err
	}

	// Rotate: seal the current memtable, install a fresh one bound to the
	// new WAL. Appenders are held off only for this pointer swap.
	s.appendMu.Lock()
	st := s.state.Load()
	sealed := st.mem
	s.publish(&storeState{gens: st.gens, sealed: sealed, mem: newMemtable(w, s.schema)})
	s.appendMu.Unlock()
	if sealed.wal != nil {
		if err := sealed.wal.close(); err != nil {
			return err
		}
	}
	s.walID = newWALID

	// Seal barrier: before the sealed records' WAL becomes deletable, the
	// ROUTER log must durably record their global interleave — the
	// sequence headers about to be dropped are its only other source.
	if s.routed() {
		if maxSeq, ok := sealed.maxSeq(); ok {
			if err := s.parent.sealBarrier(maxSeq); err != nil {
				return err
			}
		}
	}

	// Persist the sealed memtable as a frozen generation (skipped when it
	// is empty — recovery checkpoints can be).
	gens := st.gens
	var frozenBytes int
	if sealed.n.Load() > 0 {
		gid := s.nextID
		s.nextID++
		ix, err := sealed.frozen()
		if err != nil {
			return err
		}
		meta, err := writeGenerationFrom(s.dir, gid, s.schema, sealed, ix)
		if err != nil {
			return err
		}
		g, err := loadGeneration(s.dir, meta, s.schema)
		if err != nil {
			return err
		}
		frozenBytes = g.fileBytes
		gens = append(append([]*generation(nil), st.gens...), g)
	}

	// Commit: the manifest now covers the sealed contents, so the old
	// WALs are dead.
	m := manifest{nextID: s.nextID, walID: newWALID, gens: genMetas(gens), schema: s.schema}
	if err := writeManifest(s.dir, m); err != nil {
		return err
	}

	cur := s.state.Load()
	s.publish(&storeState{gens: gens, mem: cur.mem})
	for _, id := range oldWALs {
		if id != newWALID {
			os.Remove(filepath.Join(s.dir, walFileName(id)))
		}
	}
	met.flushes.Inc()
	met.flushBytes.Add(int64(frozenBytes))
	met.flushSeconds.ObserveSince(t0)
	sp.End(fmt.Sprintf("sealed=%d frozen_bytes=%d wal=%d", sealed.n.Load(), frozenBytes, newWALID))
	return nil
}

// err returns the sticky write-path failure, if any.
func (s *shard) err() error {
	if p := s.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records the first write-path failure. Reads keep serving the last
// consistent state; writes keep returning the error. On-disk state stays
// crash-consistent, so reopening the store recovers.
func (s *shard) fail(err error) {
	wrapped := fmt.Errorf("store: write path failed: %w", err)
	s.failure.CompareAndSwap(nil, &wrapped)
}

// close stops the background work, syncs and closes the WAL, and
// releases the shard's directory lock, if it holds one. The memtable is
// not flushed — its contents are already durable in the WAL and replay
// on the next open. Appends concurrent with close either complete first
// or fail closed.
func (s *shard) close() error {
	if s.closed.Swap(true) {
		return nil
	}
	liveShards.remove(s)
	if !s.opts.DisableAutoFlush {
		close(s.stopCh)
		s.bg.Wait()
	}
	// Wait out any in-flight compaction (its commit sees closed and
	// aborts; a compaction started after this point aborts at id
	// allocation), then take the locks in flush order (adminMu then
	// appendMu) so the WAL handle is closed with no appender mid-write
	// and no rotation in flight. After close returns, no goroutine of
	// this shard writes to the directory again.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	var err error
	if st := s.state.Load(); st.mem.wal != nil {
		err = st.mem.wal.close()
	}
	if s.unlock != nil {
		s.unlock()
	}
	return err
}

// publish installs st as the shard's state and drops the pinned views
// of the state it replaces — the shard's own and the parent's
// cross-shard one cut from it: a view nobody holds must not keep a
// retired generation's file mapped (mappings go with their last
// reference).
func (s *shard) publish(st *storeState) {
	s.state.Store(st)
	s.view.Store(nil)
	s.parent.view.Store(nil)
}

// snapshot returns the shard's pinned view of its current state: while
// nothing is appended, sealed, flushed or compacted every call returns
// the same *Snapshot — a pointer load — and the first call after a
// change builds the next one. Every append acknowledged before the call
// is visible in the view it returns.
func (s *shard) snapshot() *Snapshot {
	st := s.state.Load()
	n := st.mem.n.Load()
	if v := s.view.Load(); v != nil && v.shards[0].state == st && v.shards[0].memLen == n {
		return v
	}
	v := s.snapshotOf(st, n)
	s.view.Store(v)
	if s.state.Load() != st {
		// A flush or compaction published meanwhile, and its clearing of
		// the view may have come before the store above: v is still a
		// correct view for this caller, but it must not stay pinned.
		s.view.CompareAndSwap(v, nil)
	}
	return v
}

// snapshotOf builds the one-shard view of state st with the live
// memtable clamped to its first n elements. (A sealed memtable's length is
// final by the time a state names it: appends and the seal exclude each
// other.)
func (s *shard) snapshotOf(st *storeState, n int64) *Snapshot {
	segs := make([]snapSeg, 0, len(st.gens)+2)
	for _, g := range st.gens {
		var cols colReader
		if g.cols != nil {
			cols = g.cols
		} else if len(s.schema) > 0 {
			cols = allNullCols{} // frozen before the schema was pinned
		}
		segs = append(segs, snapSeg{segment: g.seg, cols: cols})
	}
	if st.sealed != nil {
		mv := memView{m: st.sealed, n: int(st.sealed.n.Load())}
		segs = append(segs, snapSeg{segment: mv, cols: mv})
	}
	mv := memView{m: st.mem, n: int(n)}
	segs = append(segs, snapSeg{segment: mv, cols: mv})
	sh := newShardView(segs)
	sh.state, sh.memLen = st, n
	return &Snapshot{n: sh.len(), shards: []*shardView{sh}, schema: s.schema}
}

// GenInfo describes one frozen generation of the store.
type GenInfo struct {
	ID       uint64 // names the file gen-<id>.wt
	Len      int    // element count
	SizeBits int    // in-memory footprint of the loaded generation
	// MinValue and MaxValue are the lexicographic bounds of the stored
	// values: the leftmost and the rightmost leaf of the generation's trie.
	MinValue string
	MaxValue string
	// Mmapped reports whether the generation's index and columns alias a
	// read-only mapping of its file (zero-copy decode) rather than heap
	// memory.
	Mmapped bool
	// FileBytes is the on-disk size of the generation file.
	FileBytes int
	// ResidentBytes is how much of the mapping currently sits in physical
	// memory (mincore), or -1 when the generation is heap-backed or the
	// platform cannot tell.
	ResidentBytes int
	// ColFileBytes / ColDirFileBytes are the sizes of the file's column
	// section and blob directory section (0 when absent).
	ColFileBytes    int
	ColDirFileBytes int
}

// generations lists the shard's persisted generations in sequence order.
func (s *shard) generations() []GenInfo {
	st := s.state.Load()
	out := make([]GenInfo, len(st.gens))
	for i, g := range st.gens {
		resident := -1
		if g.region != nil {
			resident = residentBytes(g.region.data)
		}
		lo, hi := g.ix.Bounds()
		out[i] = GenInfo{ID: g.id, Len: g.ix.Len(), SizeBits: g.ix.SizeBits(),
			MinValue: lo, MaxValue: hi,
			Mmapped: g.region != nil, FileBytes: g.fileBytes, ResidentBytes: resident,
			ColFileBytes: g.sections[secCols].n, ColDirFileBytes: g.sections[secBlobs].n}
	}
	return out
}

// memLen returns the element count currently in the memtable (appended
// but not yet flushed into a generation).
func (s *shard) memLen() int { return int(s.state.Load().mem.n.Load()) }

// MarshalBinary exports the snapshot's sequence as a single Frozen
// index — the pinned-view variant of Store.MarshalBinary, so callers
// already holding a snapshot marshal exactly the state they pinned. The
// sequence is streamed once — one page of every position, through Iterate
// — into an append-only trie, which is frozen structurally, as a flush
// freezes its memtable.
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	a := wavelettrie.NewAppendOnly()
	sn.Iterate(0, sn.Len(), func(_ int, v string) bool {
		a.Append(v)
		return true
	})
	f, err := a.Frozen()
	if err != nil {
		return nil, err
	}
	return f.MarshalBinary()
}
