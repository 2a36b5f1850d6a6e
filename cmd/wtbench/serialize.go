package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	wavelettrie "repro"
	"repro/internal/workload"
)

// benchRecord is one machine-readable measurement row: build, query and
// serialize timings plus snapshot size for a variant at a given n. The
// -json flag emits these for the repo's benchmark trajectory.
type benchRecord struct {
	Variant       string  `json:"variant"`
	N             int     `json:"n"`
	BuildMS       float64 `json:"build_ms"`
	AccessNS      float64 `json:"access_ns"`
	RankNS        float64 `json:"rank_ns"`
	SelectNS      float64 `json:"select_ns"`
	MarshalMS     float64 `json:"marshal_ms"`
	LoadMS        float64 `json:"load_ms"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	DiskBitsElem  float64 `json:"disk_bits_per_elem"`
	MemBitsElem   float64 `json:"mem_bits_per_elem"`
}

// buildFor constructs the named variant over seq, timing the build.
func buildFor(variant string, seq []string) (wavelettrie.Index, float64) {
	start := time.Now()
	var ix wavelettrie.Index
	switch variant {
	case "static":
		ix = wavelettrie.NewStatic(seq)
	case "appendonly":
		ix = wavelettrie.NewAppendOnlyFrom(seq)
	case "dynamic":
		ix = wavelettrie.NewDynamicFrom(seq)
	case "frozen":
		ix = wavelettrie.NewStatic(seq).Frozen()
	case "numeric":
		nq := wavelettrie.NewNumeric(32, 1)
		for i, s := range seq {
			nq.Append(uint64(len(s)*31+i) % 4096)
		}
		ix = nq
	default:
		panic("unknown variant " + variant)
	}
	return ix, float64(time.Since(start).Nanoseconds()) / 1e6
}

// measureSer produces the full record for one variant at one size. The
// loaded index — not the original — serves the query timings, so the
// row measures the snapshot-and-serve path end to end.
func measureSer(variant string, seq []string, iters int) benchRecord {
	ix, buildMS := buildFor(variant, seq)
	rec := benchRecord{Variant: variant, N: len(seq), BuildMS: buildMS}

	start := time.Now()
	data, err := ix.MarshalBinary()
	if err != nil {
		panic(err)
	}
	rec.MarshalMS = float64(time.Since(start).Nanoseconds()) / 1e6
	rec.SnapshotBytes = len(data)
	rec.DiskBitsElem = perElem(len(data)*8, len(seq))
	rec.MemBitsElem = perElem(ix.SizeBits(), len(seq))

	start = time.Now()
	loaded, err := wavelettrie.Load(data)
	if err != nil {
		panic(err)
	}
	rec.LoadMS = float64(time.Since(start).Nanoseconds()) / 1e6

	r := rand.New(rand.NewSource(17))
	n := loaded.Len()
	if nq, ok := loaded.(*wavelettrie.Numeric); ok {
		rec.AccessNS = measure(iters, func(i int) { nq.Access(r.Intn(n)) })
		x := nq.Access(0)
		rec.RankNS = measure(iters, func(i int) { nq.Rank(x, n) })
		rec.SelectNS = measure(iters, func(i int) { nq.Select(x, i%max(1, nq.Rank(x, n))) })
		return rec
	}
	si := loaded.(wavelettrie.StringIndex)
	p := makeProbes(seq, r)
	rec.AccessNS = measure(iters, func(i int) { si.Access(p.pos[i&1023] % n) })
	rec.RankNS = measure(iters, func(i int) { si.Rank(p.strings[i&63], p.pos[i&1023]) })
	rec.SelectNS = measure(iters, func(i int) {
		s := p.strings[i&63]
		if c := si.Rank(s, n); c > 0 {
			si.Select(s, i%c)
		}
	})
	return rec
}

var serVariants = []string{"static", "appendonly", "dynamic", "frozen", "numeric"}

// serConfig returns the sizes and query iterations the "ser" suite runs.
func serConfig(quick bool) (sizes []int, iters int) {
	return pick(quick, []int{1 << 12}, []int{1 << 14, 1 << 17}),
		pick(quick, []int{20000}, []int{100000})[0]
}

func serRecords(quick bool) []benchRecord {
	sizes, iters := serConfig(quick)
	var recs []benchRecord
	for _, n := range sizes {
		seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
		for _, v := range serVariants {
			recs = append(recs, measureSer(v, seq, iters))
		}
	}
	return recs
}

// runSER prints the serialize/deserialize experiment: every variant
// round-trips through its snapshot; loading must be far cheaper than
// rebuilding while answering queries at the same speed.
func runSER(quick bool) {
	fmt.Println("Expectation: load_ms << build_ms (snapshot-and-serve vs rebuild-on-boot);")
	fmt.Println("query latency measured on the LOADED index matches the build-side tables;")
	fmt.Println("frozen disk size is the smallest (succinct encoding is the wire format).")
	t := newTable("variant", "n", "build ms", "marshal ms", "load ms", "disk KiB",
		"disk b/elem", "mem b/elem", "access ns", "rank ns", "select ns")
	for _, r := range serRecords(quick) {
		t.row(r.Variant, r.N, r.BuildMS, r.MarshalMS, r.LoadMS,
			fmt.Sprintf("%.0f", float64(r.SnapshotBytes)/1024),
			r.DiskBitsElem, r.MemBitsElem, r.AccessNS, r.RankNS, r.SelectNS)
	}
	t.flush()
}

// benchConfig is the -json envelope's config block: every knob the
// suite ran with (sizes, iteration counts, shard/writer grids), so a
// committed BENCH_*.json is self-describing instead of leaving the
// configuration in stdout text.
type benchConfig struct {
	Quick        bool              `json:"quick"`
	SerVariants  []string          `json:"ser_variants"`
	SerSizes     []int             `json:"ser_sizes"`
	SerIters     int               `json:"ser_iters"`
	StoreSizes   []int             `json:"store_sizes"`
	StoreIters   int               `json:"store_iters"`
	CompactSizes []int             `json:"compact_sizes"`
	CompactBatch int               `json:"compact_flush_batch"`
	FreezeSizes  []int             `json:"freeze_sizes"`
	FreezeBatch  int               `json:"freeze_flush_batch"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	NumCPU       int               `json:"num_cpu"`
	Shard        shardBenchConfig  `json:"shard"`
	Router       routerBenchConfig `json:"router"`
	Column       columnBenchConfig `json:"column"`
}

// emitJSON writes the machine-readable benchmark suite to stdout: the
// config block, the per-variant build/query/serialize records, and the
// log-structured store, compaction and sharding experiments.
func emitJSON(quick bool) {
	cfg := benchConfig{Quick: quick, SerVariants: serVariants, Shard: shardConfig(quick),
		Router: routerConfig(quick), Column: columnConfig(quick),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	cfg.SerSizes, cfg.SerIters = serConfig(quick)
	cfg.StoreSizes, cfg.StoreIters = storeConfig(quick)
	cfg.CompactSizes, cfg.CompactBatch = compactConfig(quick)
	cfg.FreezeSizes, cfg.FreezeBatch = freezeConfig(quick)
	out := struct {
		Suite          string               `json:"suite"`
		Quick          bool                 `json:"quick"`
		Config         benchConfig          `json:"config"`
		Records        []benchRecord        `json:"records"`
		StoreRecords   []storeBenchRecord   `json:"store_records"`
		CompactRecords []compactBenchRecord `json:"compact_records"`
		FreezeRecords  []freezeBenchRecord  `json:"freeze_records"`
		ShardRecords   []shardBenchRecord   `json:"shard_records"`
		RouterRecords  []routerBenchRecord  `json:"router_records"`
		ColumnRecords  []columnBenchRecord  `json:"column_records"`
	}{Suite: "wavelettrie-serialize", Quick: quick, Config: cfg,
		Records: serRecords(quick), StoreRecords: storeBenchRecords(quick),
		CompactRecords: compactBenchRecords(quick), FreezeRecords: freezeBenchRecords(quick),
		ShardRecords: shardBenchRecords(quick), RouterRecords: routerBenchRecords(quick),
		ColumnRecords: columnBenchRecords(quick)}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		panic(err)
	}
}
