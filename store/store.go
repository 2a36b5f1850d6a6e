package store

import (
	"errors"
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

// Options tune a Store. The zero value (or a nil pointer) selects the
// defaults below.
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
	// NoMmap disables memory-mapping generation files. By default (on
	// platforms that support it) checksummed generations are mapped
	// read-only and decoded zero-copy, so Open does O(metadata) work per
	// generation beyond the CRC pass and the page cache backs — and
	// shares across processes — the index bits. With NoMmap set every
	// generation is read and decoded onto the heap.
	NoMmap bool
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

// useMmap reports whether this store maps generation files.
func (s *Store) useMmap() bool { return mmapSupported && !s.opts.NoMmap }

// maybeRemap swaps a freshly written heap-backed generation onto a
// mapping of its own file when mmap is enabled — so flush and
// compaction output immediately gains the page-cache backing that
// reopened generations have. Best effort; on failure the heap-backed
// generation is kept.
func (s *Store) maybeRemap(g *generation) *generation {
	if !s.useMmap() {
		return g
	}
	return remapGeneration(s.dir, g)
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

// Store is a durable, concurrently readable string sequence: WAL +
// memtable in front, frozen Wavelet Trie generations behind, stitched
// together by Snapshot. All methods are safe for concurrent use. The
// query methods satisfy wavelettrie.StringIndex, each call served by the
// current pinned view (see Snapshot); take an explicit Snapshot to hold
// one view across several queries.
type Store struct {
	dir  string
	opts Options

	appendMu  sync.Mutex // serializes appenders and the memtable swap
	adminMu   sync.Mutex // serializes flush, compaction commits, close
	compactMu sync.Mutex // serializes whole compactions; taken before adminMu, never while holding it

	state atomic.Pointer[storeState] // replaced only through publish
	view  atomic.Pointer[Snapshot]   // the pinned view of the current state, if a reader has built it

	// schema is the pinned column schema (possibly empty), fixed at Open.
	schema []ColumnSpec

	hooks *shardHooks // non-nil when this store is a shard (see shardHooks)

	// Guarded by adminMu.
	nextID        uint64   // next unallocated file id
	walID         uint64   // id of the live memtable's WAL
	recoveredWALs []uint64 // superseded logs kept past a deferred recovery checkpoint

	failure atomic.Pointer[error] // sticky write-path failure

	flushCh   chan struct{}
	compactCh chan struct{}
	stopCh    chan struct{}
	bg        sync.WaitGroup
	closed    atomic.Bool
	unlock    func() // releases the directory lock
}

// shardHooks wires a Store into a ShardedStore. The sharded layer
// allocates the global sequence numbers itself, with the shard's append
// lock held (so per-shard WAL order always agrees with sequence order), and
// hands them to appendBatchLocked. barrier is invoked before a flush
// persists sealed records — the sharded layer uses it to make the ROUTER
// log durable through the sealed records' sequence numbers before their WAL
// becomes deletable. A store opened with hooks also defers the
// interrupted-flush recovery checkpoint (the sharded reconciliation must
// read the WAL tails' sequence numbers first); the superseded logs are
// cleaned up by the next flush instead. retire is called whenever the shard
// publishes a new state, so the sharded store can drop its own pinned view
// of the old one.
type shardHooks struct {
	barrier func(maxSeq uint64) error
	retire  func()
}

// Store serves the whole read surface of the root package's string
// interface (plus Append, Flush, Compact); keep that contract honest.
var _ wavelettrie.StringIndex = (*Store)(nil)

// errClosed reports an operation on a closed store. It is distinguished
// from write-path failures so a Close racing a compaction does not mark
// the store failed.
var errClosed = errors.New("store: closed")

// Open opens the store in dir, creating it if empty, and replays the WAL
// tail: torn or corrupt trailing records are truncated, every complete
// acknowledged record is reapplied. If a crash interrupted a flush,
// recovery folds the affected WALs into a fresh generation before
// returning, so the on-disk layout is always the steady-state one.
func Open(dir string, opts *Options) (*Store, error) {
	if _, err := os.Stat(filepath.Join(dir, shardsName)); err == nil {
		return nil, fmt.Errorf("store: %s holds a sharded store; use OpenSharded", dir)
	}
	// A shard subdirectory must not be opened standalone either: its
	// flushed records' interleave lives in the parent's ROUTER log, and
	// header-less appends through a plain handle would poison the next
	// sharded open. (A fully-flushed shard has no header-carrying WAL
	// records left, so the replay-time check below cannot catch it.)
	// Only shard-named subdirectories are refused — an unrelated plain
	// store merely sitting next to a SHARDS file is none of our business.
	if parent := filepath.Dir(filepath.Clean(dir)); parent != dir && isShardDirName(filepath.Base(filepath.Clean(dir))) {
		if _, err := os.Stat(filepath.Join(parent, shardsName)); err == nil {
			return nil, fmt.Errorf("store: %s is a shard of the sharded store in %s; use OpenSharded on the parent", dir, parent)
		}
	}
	return openStore(dir, opts, nil)
}

// openStore is Open plus the sharded wiring: with non-nil hooks the
// store runs as one shard of a ShardedStore (see shardHooks).
func openStore(dir string, opts *Options, hooks *shardHooks) (*Store, error) {
	s := &Store{
		dir:       dir,
		opts:      opts.withDefaults(),
		hooks:     hooks,
		flushCh:   make(chan struct{}, 1),
		compactCh: make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s.unlock = unlock
	ok := false
	defer func() {
		if ok {
			return
		}
		if st := s.state.Load(); st != nil && st.mem.wal != nil {
			st.mem.wal.close()
		}
		unlock()
	}()
	os.Remove(filepath.Join(dir, manifestTmpName)) // stray from a crashed rewrite

	m, fresh, err := s.loadManifest()
	if err != nil {
		return nil, err
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
			gens[i], errs[i] = loadGeneration(dir, meta, s.schema, s.useMmap())
		}(i, meta)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.nextID, s.walID = m.nextID, m.walID
	s.removeOrphanGens(m.gens)

	walIDs, err := s.findWALs(m.walID)
	if err != nil {
		return nil, err
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
			return nil, err
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

	// A standalone store must never see sharded records (a shard
	// directory opened directly would lose its sequence headers at the
	// first checkpoint), and a shard must carry a header on every
	// unflushed record or recovery cannot interleave them.
	if hooks == nil && len(mem.seqs) > 0 {
		return nil, fmt.Errorf("store: %s is a shard of a sharded store; open the parent with OpenSharded", dir)
	}
	if hooks != nil && len(mem.seqs) != int(mem.n.Load()) {
		return nil, fmt.Errorf("store: shard %s: %d of %d unflushed records lack sequence headers",
			dir, int(mem.n.Load())-len(mem.seqs), mem.n.Load())
	}

	if len(walIDs) > 1 {
		if hooks != nil {
			// Sharded recovery needs the replayed tail's sequence numbers;
			// defer the checkpoint and let the next flush delete the
			// superseded logs instead.
			s.recoveredWALs = append([]uint64(nil), walIDs[:len(walIDs)-1]...)
		} else {
			// Interrupted flush: checkpoint the combined replay into a
			// generation so the stale WALs can go away.
			if err := s.flushLocked(walIDs); err != nil {
				return nil, err
			}
		}
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
	liveStores.add(s)
	ok = true
	return s, nil
}

// loadManifest reads dir/MANIFEST, writing a fresh one for a new store,
// and settles the column schema: a fresh store pins Options.Columns; an
// existing schema-less store opened with columns pins them (rewriting
// the manifest — prior generations keep colCRC 0 and read all-NULL); an
// existing schema must match Options.Columns exactly, or be adopted
// when the options carry none.
func (s *Store) loadManifest() (manifest, bool, error) {
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
func (s *Store) removeOrphanGens(metas []genMeta) {
	live := make(map[string]bool, 3*len(metas))
	for _, meta := range metas {
		live[genFileName(meta.id)] = true
		live[colFileName(meta.id)] = true
		live[colDirFileName(meta.id)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "gen-") || live[name] {
			continue
		}
		for _, suffix := range []string{".wt", ".wt.tmp", ".col", ".col.tmp", ".cd", ".cd.tmp"} {
			if strings.HasSuffix(name, suffix) {
				os.Remove(filepath.Join(s.dir, name))
				break
			}
		}
	}
}

// findWALs lists the WAL ids present in dir that are at or after from,
// ascending, and deletes stale ones from before it.
func (s *Store) findWALs(from uint64) ([]uint64, error) {
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

// Append adds v at the end of the sequence: WAL first (fsynced when
// Options.Sync is set), then the memtable. It returns only after the
// write is visible to new snapshots.
func (s *Store) Append(v string) error { return s.AppendRow(v, nil) }

// AppendRow is Append carrying a payload row: row[i] is the cell of
// schema column i (nil row = all NULL). The row rides in the same WAL
// record as the value, so its durability and crash-recovery guarantees
// are exactly Append's — it is AppendBatchRows of one value, the same
// bytes in the log and the same path through the store.
func (s *Store) AppendRow(v string, row Row) error {
	return s.AppendBatchRows([]string{v}, []Row{row})
}

// AppendBatch adds vs at the end of the sequence, atomically with
// respect to snapshots and flushes: the whole batch becomes visible at
// once, in argument order, with no other append interleaved inside it.
// The batch costs one lock acquisition, one WAL write and (with
// Options.Sync) one fsync regardless of its size — the group-commit
// amortization the network server's write path batches into. An empty
// batch is a no-op.
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

// appendBatchLocked is the one append body, a plain store's and a shard's,
// for one value or many: frame every WAL
// record straight into one buffer, write it with a single write+fsync,
// then apply the whole batch to the memtable under one lock — O(|v|) and
// a trie insert per value, nothing that reads the rest of the store.
// rows and seqs, when non-nil, carry the records' payload rows and global
// sequence numbers (sharded shards), parallel to vs; rows must be
// pre-validated. Returns the memtable length after the batch. Caller
// holds appendMu.
func (s *Store) appendBatchLocked(vs []string, rows []Row, seqs []uint64) (int64, error) {
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
func (s *Store) nudgeFlush(n int64) {
	if int(n) >= s.opts.FlushThreshold && !s.opts.DisableAutoFlush {
		select {
		case s.flushCh <- struct{}{}:
		default:
		}
	}
}

// recoveredTail returns the sequence numbers of the unflushed records
// replayed at Open, in local order — consumed once by the sharded
// reconciliation before any new appends.
func (s *Store) recoveredTail() []uint64 {
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
func (s *Store) renumberTail(seqs []uint64) {
	mem := s.state.Load().mem
	mem.mu.Lock()
	defer mem.mu.Unlock()
	if len(seqs) != len(mem.seqs) {
		panic(fmt.Sprintf("store: renumberTail got %d numbers for %d records (internal error)", len(seqs), len(mem.seqs)))
	}
	copy(mem.seqs, seqs)
}

// background runs the flusher until Close, nudging the compactor after
// every flush. Never compact after a failed flush — a manifest written
// then would carry the advanced walID while the sealed memtable's
// records are in no generation, and the next Open would delete the WAL
// that still holds them; the compactor re-checks err() itself.
func (s *Store) background() {
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
func (s *Store) compactor() {
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

// Flush seals the current memtable into a frozen generation, rotates the
// WAL, rewrites the manifest and deletes the superseded log. A reader
// holding a snapshot from before the flush keeps its view; new snapshots
// see the same sequence served from the new generation. Flushing an
// empty memtable is a no-op.
func (s *Store) Flush() error {
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
func (s *Store) flushLocked(oldWALs []uint64) error {
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("flush")
	if len(s.recoveredWALs) > 0 {
		// Logs superseded by a deferred recovery checkpoint (sharded
		// open): their records are in the memtable being sealed, so this
		// flush's manifest covers them too.
		oldWALs = append(append([]uint64(nil), s.recoveredWALs...), oldWALs...)
	}
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

	// Sharded barrier: before the sealed records' WAL becomes deletable,
	// the ROUTER log must durably record their global interleave — the
	// sequence headers about to be dropped are its only other source.
	if s.hooks != nil {
		if maxSeq, ok := sealed.maxSeq(); ok {
			if err := s.hooks.barrier(maxSeq); err != nil {
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
		g, err := writeGenerationFrom(s.dir, gid, s.schema, sealed, ix)
		if err != nil {
			return err
		}
		frozenBytes = g.fileBytes
		g = s.maybeRemap(g)
		gens = append(append([]*generation(nil), st.gens...), g)
	}

	// Commit: the manifest now covers the sealed contents, so the old
	// WALs are dead.
	m := manifest{nextID: s.nextID, walID: newWALID, gens: genMetas(gens), schema: s.schema}
	if err := writeManifest(s.dir, m); err != nil {
		return err
	}
	s.recoveredWALs = nil

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
	if sp.Active() {
		sp.End(fmt.Sprintf("sealed=%d frozen_bytes=%d wal=%d", sealed.n.Load(), frozenBytes, newWALID))
	}
	return nil
}

// err returns the sticky write-path failure, if any.
func (s *Store) err() error {
	if p := s.failure.Load(); p != nil {
		return *p
	}
	return nil
}

// fail records the first write-path failure. Reads keep serving the last
// consistent state; writes keep returning the error. On-disk state stays
// crash-consistent, so reopening the store recovers.
func (s *Store) fail(err error) {
	wrapped := fmt.Errorf("store: write path failed: %w", err)
	s.failure.CompareAndSwap(nil, &wrapped)
}

// Close stops the background work, syncs and closes the WAL, and
// releases the directory lock. The memtable is not flushed — its
// contents are already durable in the WAL and replay on the next Open.
// Appends concurrent with Close either complete first or fail closed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	liveStores.remove(s)
	if !s.opts.DisableAutoFlush {
		close(s.stopCh)
		s.bg.Wait()
	}
	// Wait out any in-flight compaction (its commit sees closed and
	// aborts; a compaction started after this point aborts at id
	// allocation), then take the locks in flush order (adminMu then
	// appendMu) so the WAL handle is closed with no appender mid-write
	// and no rotation in flight. After Close returns, no goroutine of
	// this store writes to the directory again.
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

// publish installs st as the store's state and drops the pinned view of
// the state it replaces: a view nobody holds must not keep a retired
// generation's file mapped (mappings go with their last reference).
func (s *Store) publish(st *storeState) {
	s.state.Store(st)
	s.view.Store(nil)
	if s.hooks != nil {
		s.hooks.retire()
	}
}

// Snapshot returns an immutable, consistent view of the current
// sequence; it stays valid (and unchanged) for the life of the process,
// regardless of concurrent appends, flushes and compactions. The store
// pins one view per visible state: while nothing is appended, sealed,
// flushed or compacted every call returns the same *Snapshot — a pointer
// load — and the first call after a change builds the next one. Every
// append acknowledged before the call is visible in the view it returns.
func (s *Store) Snapshot() *Snapshot {
	st := s.state.Load()
	n := st.mem.n.Load()
	if v := s.view.Load(); v != nil && v.state == st && v.memLen == n {
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

// snapshotOf builds the view of state st with the live memtable clamped
// to its first n elements. (A sealed memtable's length is final by the
// time a state names it: appends and the seal exclude each other.)
func (s *Store) snapshotOf(st *storeState, n int64) *Snapshot {
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
	sn := newSnapshot(segs)
	sn.schema, sn.state, sn.memLen = s.schema, st, n
	return sn
}

// GenInfo describes one frozen generation of the store.
type GenInfo struct {
	ID       uint64 // names the files gen-<id>.wt / .col / .cd
	Len      int    // element count
	SizeBits int    // in-memory footprint of the loaded generation
	// MinValue and MaxValue are the lexicographic bounds of the stored
	// values: the leftmost and the rightmost leaf of the generation's trie.
	MinValue string
	MaxValue string
	// Mmapped reports whether the generation's index aliases a read-only
	// file mapping (zero-copy decode) rather than heap memory.
	Mmapped bool
	// FileBytes is the on-disk size of the index file.
	FileBytes int
	// ResidentBytes is how much of the mapping currently sits in physical
	// memory (mincore), or -1 when the generation is heap-backed or the
	// platform cannot tell.
	ResidentBytes int
	// ColFileBytes / ColDirFileBytes are the on-disk sizes of the
	// generation's column file and offset directory (0 when absent), and
	// ColMmapped / ColResidentBytes mirror Mmapped / ResidentBytes for
	// the column mappings (resident is summed across .col and .cd).
	ColFileBytes     int
	ColDirFileBytes  int
	ColMmapped       bool
	ColResidentBytes int
}

// Generations lists the persisted generations in sequence order.
func (s *Store) Generations() []GenInfo {
	st := s.state.Load()
	out := make([]GenInfo, len(st.gens))
	for i, g := range st.gens {
		resident := -1
		if g.region != nil {
			resident = residentBytes(g.region.data)
		}
		colResident, colMapped := -1, g.cols != nil && g.cols.colRegion != nil
		if colMapped {
			colResident = residentBytes(g.cols.colRegion.data)
			if g.cols.cdRegion != nil {
				if r := residentBytes(g.cols.cdRegion.data); r >= 0 {
					colResident += r
				}
			}
		}
		lo, hi := g.ix.Bounds()
		out[i] = GenInfo{ID: g.id, Len: g.ix.Len(), SizeBits: g.ix.SizeBits(),
			MinValue: lo, MaxValue: hi,
			Mmapped: g.region != nil, FileBytes: g.fileBytes, ResidentBytes: resident,
			ColFileBytes: g.colBytes, ColDirFileBytes: g.cdBytes,
			ColMmapped: colMapped, ColResidentBytes: colResident}
	}
	return out
}

// MemLen returns the element count currently in the memtable (appended
// but not yet flushed into a generation).
func (s *Store) MemLen() int { return int(s.state.Load().mem.n.Load()) }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

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
// segments in bits.
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

// MarshalBinary exports the snapshot's sequence as a single Frozen
// index — the pinned-view variant of Store.MarshalBinary, so callers
// already holding a snapshot marshal exactly the state they pinned.
func (sn *Snapshot) MarshalBinary() ([]byte, error) {
	f, err := wavelettrie.FreezeIterate(func(yield func(s string) bool) {
		sn.Iterate(0, sn.Len(), func(_ int, v string) bool { return yield(v) })
	})
	if err != nil {
		return nil, err
	}
	return f.MarshalBinary()
}
