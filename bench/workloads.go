package main

import (
	"fmt"

	"repro/store"
)

// workloadSpec is one of the four closed-loop workloads. Names are
// permanent: later issues cite metrics as "<metric> on <workload>".
type workloadSpec struct {
	name string
	why  string // one line, repeated in BENCHMARK.json

	shards  int  // 0 = plain store
	columns bool // serve with -columns status:u64,bytes:u64 and attach rows
	live    bool // takes appends during the run
	mix     []mixEntry
	batch   int // values per append op
	// valueOps makes an op mean one appended value rather than one
	// request, so ingest's throughput is values/s and its cost is µs
	// per value.
	valueOps bool

	// layout returns how much is preloaded in process before wtserve
	// starts — gens flushed generations of sz.genLen values and an
	// unflushed WAL tail — and how long the append stream is.
	layout func(sz sizes) (gens, tail, appPool int)
}

var workloads = []*workloadSpec{
	{
		name:  "ingest",
		why:   "write path only: group commit, WAL, memtable, flush through FrozenBuilder, compaction; the Frozen query path does nothing",
		live:  true,
		mix:   []mixEntry{{opAppend, 100}},
		batch: ingestBatch, valueOps: true,
		layout: func(sz sizes) (int, int, int) { return 0, 0, sz.ingestPool },
	},
	{
		name: "point_read",
		why:  "uncacheable access/rank/select over 8 Frozen generations behind probe filters; write path and columns do nothing",
		mix:  []mixEntry{{opAccess, 40}, {opRank, 30}, {opSelect, 30}},
		layout: func(sz sizes) (int, int, int) {
			return sz.gens, sz.tail, 0
		},
	},
	{
		name:    "prefix_scan",
		why:     "same layers used differently: prefix descent, streamed iteration, column bit planes, cursors; 512 hot prefixes fit the result cache",
		columns: true,
		mix: []mixEntry{{opCountPrefix, 30}, {opRankPrefix, 25}, {opSelectPrefix, 10},
			{opScanPrefix, 15}, {opScanWhere, 10}, {opRow, 5}, {opScan, 5}},
		layout: func(sz sizes) (int, int, int) {
			return sz.gens, sz.tail, 0
		},
	},
	{
		name:    "mixed",
		why:     "appends beside reads on the sharded columnar form: router, row-carrying WAL, cache invalidation, flush and compaction competing for 2 cores",
		shards:  2,
		columns: true,
		live:    true,
		mix: []mixEntry{{opAppend, 10}, {opAccess, 25}, {opRank, 15}, {opSelect, 10},
			{opCountPrefix, 15}, {opRankPrefix, 10}, {opScanPrefix, 5}, {opRow, 5}, {opCount, 5}},
		batch: mixedBatch,
		layout: func(sz sizes) (int, int, int) {
			return sz.mixedGens, 0, sz.mixedPool
		},
	},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workloadSpec) columnFlag() string {
	if w.columns {
		return columnSpec
	}
	return ""
}

// appender is the write surface store.Store and store.ShardedStore share.
type appender interface {
	AppendBatchRows(vs []string, rows []store.Row) error
	Flush() error
	Close() error
}

// openStore opens dir in process the way wtserve will serve it, but
// with the background flusher off so the generation layout is exactly
// what the caller flushes.
func openStore(dir string, shards int, columns string) (appender, error) {
	cols, err := store.ParseColumns(columns)
	if err != nil {
		return nil, err
	}
	opts := store.Options{DisableAutoFlush: true, Columns: cols}
	if shards > 0 {
		return store.OpenSharded(dir, &store.ShardedOptions{Shards: shards, Store: opts})
	}
	return store.Open(dir, &opts)
}

// preloadBatch is the in-process AppendBatch size: large enough that
// the per-call cost vanishes, small enough not to be one giant WAL record.
const preloadBatch = 1024

// appendAll appends seq[lo:hi] (with rows when present) in batches.
func appendAll(st appender, seq []string, rows []store.Row, lo, hi int) error {
	for i := lo; i < hi; i += preloadBatch {
		j := min(i+preloadBatch, hi)
		var rs []store.Row
		if rows != nil {
			rs = rows[i:j]
		}
		if err := st.AppendBatchRows(seq[i:j], rs); err != nil {
			return err
		}
	}
	return nil
}

// preload writes d.seq into dir: gens explicit flushes of genLen values
// each, then the rest left in the WAL for wtserve to replay.
func preload(dir string, w *workloadSpec, d *dataset, gens, genLen int) error {
	st, err := openStore(dir, w.shards, w.columnFlag())
	if err != nil {
		return err
	}
	for g := 0; g < gens; g++ {
		if err := appendAll(st, d.seq, d.rows, g*genLen, (g+1)*genLen); err != nil {
			st.Close()
			return err
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return err
		}
	}
	if err := appendAll(st, d.seq, d.rows, gens*genLen, len(d.seq)); err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing the preloaded store: %w", err)
	}
	return nil
}
