package store

import (
	"sync"

	"repro/internal/obs"
)

// met is the store package's metric set, registered once in the
// process-wide obs registry. Handles are package-level rather than
// per-shard: registration is idempotent and every shard of every store
// records into the same engine-wide
// series, which is what an operator scraping one process wants.
// Per-instance breakdowns stay available through Generations/MemLen.
var met = newStoreMetrics(obs.Default())

// storeMetrics holds the pre-resolved handles the store's hot paths
// record into.
type storeMetrics struct {
	reg *obs.Registry

	// WAL write path.
	walFsyncSeconds *obs.Histogram
	walBytes        *obs.Counter
	walRecords      *obs.Counter
	walTornTails    *obs.Counter

	// Flush path.
	flushSeconds *obs.Histogram
	flushes      *obs.Counter
	flushBytes   *obs.Counter

	// Compaction.
	compactSeconds      *obs.Histogram
	compactions         *obs.Counter
	compactBytesRead    *obs.Counter
	compactBytesWritten *obs.Counter
	compactAborts       *obs.Counter
}

func newStoreMetrics(r *obs.Registry) *storeMetrics {
	m := &storeMetrics{
		reg: r,

		walFsyncSeconds: r.NewHistogram("wt_wal_fsync_seconds",
			"Latency of WAL fsync calls (per-record and group-commit).", 1e-9),
		walBytes: r.NewCounter("wt_wal_appended_bytes_total",
			"Framed bytes appended to write-ahead logs."),
		walRecords: r.NewCounter("wt_wal_appended_records_total",
			"Records appended to write-ahead logs."),
		walTornTails: r.NewCounter("wt_wal_torn_tail_recoveries_total",
			"Log recoveries that truncated a torn or corrupt tail."),

		flushSeconds: r.NewHistogram("wt_flush_seconds",
			"Duration of memtable flushes (seal, freeze, manifest commit).", 1e-9),
		flushes: r.NewCounter("wt_flushes_total",
			"Completed memtable flushes."),
		flushBytes: r.NewCounter("wt_flush_frozen_bytes_total",
			"On-disk bytes of generations written by flushes."),

		compactSeconds: r.NewHistogram("wt_compact_seconds",
			"Duration of generation merges (prepare and commit).", 1e-9),
		compactions: r.NewCounter("wt_compactions_total",
			"Completed generation merges."),
		compactBytesRead: r.NewCounter("wt_compact_read_bytes_total",
			"On-disk bytes of victim generations consumed by merges."),
		compactBytesWritten: r.NewCounter("wt_compact_written_bytes_total",
			"On-disk bytes of merged generations written by compaction."),
		compactAborts: r.NewCounter("wt_compact_aborts_total",
			"Merges abandoned before commit (close, write failure, moved run)."),
	}

	r.NewGaugeFunc("wt_store_open",
		"Stores (including shards) currently open in this process.",
		func() int64 { return int64(len(liveShards.all())) })
	r.NewGaugeFunc("wt_store_generations",
		"Frozen generations across all open stores.",
		func() int64 {
			var n int64
			for _, s := range liveShards.all() {
				n += int64(len(s.state.Load().gens))
			}
			return n
		})
	r.NewGaugeFunc("wt_store_memtable_len",
		"Unflushed memtable records across all open stores.",
		func() int64 {
			var n int64
			for _, s := range liveShards.all() {
				n += s.state.Load().mem.n.Load()
			}
			return n
		})
	r.NewGaugeFunc("wt_compact_debt_generations",
		"Generations above each store's MaxGenerations target (pending merge work).",
		func() int64 {
			var n int64
			for _, s := range liveShards.all() {
				if d := len(s.state.Load().gens) - s.opts.MaxGenerations; d > 0 {
					n += int64(d)
				}
			}
			return n
		})
	r.NewGaugeFunc("wt_mmap_mapped_bytes",
		"Bytes of generation files currently memory-mapped.",
		func() int64 {
			var n int64
			for _, s := range liveShards.all() {
				for _, g := range s.state.Load().gens {
					if g.region != nil {
						n += int64(len(g.region.data))
					}
				}
			}
			return n
		})
	r.NewGaugeFunc("wt_mmap_resident_bytes",
		"Bytes of mapped generation files resident in physical memory (mincore).",
		func() int64 {
			var n int64
			for _, s := range liveShards.all() {
				for _, g := range s.state.Load().gens {
					if g.region == nil {
						continue
					}
					if r := residentBytes(g.region.data); r > 0 {
						n += int64(r)
					}
				}
			}
			return n
		})

	return m
}

// liveShards tracks every open shard so the gauge funcs above can sum
// over live instances at scrape time instead of keeping write-through
// copies in sync. Shards register at the end of openShard and
// deregister in close.
var liveShards = &shardSet{m: make(map[*shard]struct{})}

type shardSet struct {
	mu sync.Mutex
	m  map[*shard]struct{}
}

func (ss *shardSet) add(s *shard)    { ss.mu.Lock(); ss.m[s] = struct{}{}; ss.mu.Unlock() }
func (ss *shardSet) remove(s *shard) { ss.mu.Lock(); delete(ss.m, s); ss.mu.Unlock() }

// all returns the live shards; a copy, so gauge funcs never hold the
// set's lock while touching shard state.
func (ss *shardSet) all() []*shard {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]*shard, 0, len(ss.m))
	for s := range ss.m {
		out = append(out, s)
	}
	return out
}
