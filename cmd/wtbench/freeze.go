package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	wavelettrie "repro"
	"repro/internal/workload"
	"repro/store"
)

// freezeBenchRecord is one machine-readable row of the "freeze"
// experiment: a compaction-sized merge frozen the old way (materialize
// the victims as a []string, NewStatic, Frozen) vs merged structurally
// (ConcatFrozen, the store's compaction path; the builder_* fields keep
// the names the BENCH files recorded when that path was the two-pass
// FrozenBuilder), with wall time, total allocations and sampled peak live
// heap for each; flush latency percentiles through the store's flush
// path; and Open wall time for the same directory with the generations
// mmap'd vs heap-decoded.
type freezeBenchRecord struct {
	N                int     `json:"n"` // merged element count
	StaticMergeMS    float64 `json:"static_merge_ms"`
	StaticAllocMB    float64 `json:"static_merge_alloc_mb"`
	StaticPeakMB     float64 `json:"static_merge_peak_heap_mb"`
	BuilderMergeMS   float64 `json:"builder_merge_ms"`
	BuilderAllocMB   float64 `json:"builder_merge_alloc_mb"`
	BuilderPeakMB    float64 `json:"builder_merge_peak_heap_mb"`
	PeakHeapRatio    float64 `json:"peak_heap_static_over_builder"`
	FlushP50MS       float64 `json:"flush_p50_ms"`
	FlushP99MS       float64 `json:"flush_p99_ms"`
	OpenGenerations  int     `json:"open_generations"`
	OpenElems        int     `json:"open_elems"`
	OpenMmapMS       float64 `json:"open_mmap_ms"`
	OpenHeapMS       float64 `json:"open_heap_ms"`
	OpenMmapResident int     `json:"open_mmap_resident_bytes"` // -1 unknown
	OpenFileBytes    int     `json:"open_file_bytes"`
}

// heapLiveBytes reads the live heap size (bytes in reachable + not yet
// swept objects) without a stop-the-world, via runtime/metrics.
func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapAllocBytes reads the cumulative allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// measureHeapOp runs fn and reports its wall time, total allocations,
// and peak live heap growth over the pre-fn baseline, the latter
// sampled by a background goroutine (async preemption keeps it running
// even on GOMAXPROCS=1 under a CPU-bound fn).
func measureHeapOp(fn func()) (ms, allocMB, peakMB float64) {
	runtime.GC()
	base := heapLiveBytes()
	allocBase := heapAllocBytes()
	var peak atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if v := heapLiveBytes(); v > peak.Load() {
				peak.Store(v)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	start := time.Now()
	fn()
	ms = float64(time.Since(start).Nanoseconds()) / 1e6
	close(stop)
	<-done
	if v := heapLiveBytes(); v > peak.Load() {
		peak.Store(v)
	}
	allocMB = float64(heapAllocBytes()-allocBase) / (1 << 20)
	growth := int64(peak.Load()) - int64(base)
	if growth < 0 {
		growth = 0
	}
	peakMB = float64(growth) / (1 << 20)
	return ms, allocMB, peakMB
}

// measureFreeze runs the freeze experiment for a merge of n elements
// with batch-sized flush samples.
func measureFreeze(n, batch int) freezeBenchRecord {
	rec := freezeBenchRecord{N: n}
	seq := workload.URLLog(n, 3, workload.DefaultURLConfig())

	// Two frozen "victim" halves, as compaction would see them.
	left := wavelettrie.NewStatic(seq[:n/2]).Frozen()
	right := wavelettrie.NewStatic(seq[n/2:]).Frozen()

	// Old merge path: materialize both victims as one []string, rebuild
	// the pointer trie, freeze, marshal — peak memory is input strings +
	// pointer trie + output.
	var staticData []byte
	rec.StaticMergeMS, rec.StaticAllocMB, rec.StaticPeakMB = measureHeapOp(func() {
		merged := make([]string, 0, n)
		merged = append(merged, left.Slice(0, left.Len())...)
		merged = append(merged, right.Slice(0, right.Len())...)
		d, err := wavelettrie.NewStatic(merged).Frozen().MarshalBinary()
		if err != nil {
			panic(err)
		}
		staticData = d
	})

	// Structural merge path, the one compaction runs: the two tries walked
	// together, node bitvectors concatenated, marshal — no element is
	// decoded and the input is never held.
	var builderData []byte
	rec.BuilderMergeMS, rec.BuilderAllocMB, rec.BuilderPeakMB = measureHeapOp(func() {
		f, err := wavelettrie.ConcatFrozen(nil, left, right)
		if err != nil {
			panic(err)
		}
		d, err := f.MarshalBinary()
		if err != nil {
			panic(err)
		}
		builderData = d
	})
	if !bytes.Equal(staticData, builderData) {
		panic("freeze bench: merged output differs from NewStatic freeze")
	}
	if rec.BuilderPeakMB > 0 {
		rec.PeakHeapRatio = rec.StaticPeakMB / rec.BuilderPeakMB
	}

	// Flush latency through the store's flush path, plus a directory
	// with a few large and many small generations for the Open contrast.
	dir, err := os.MkdirTemp("", "wtbench-freeze-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(dir, &store.Options{FlushThreshold: 1 << 30, DisableAutoFlush: true})
	if err != nil {
		panic(err)
	}
	appendAll := func(vs []string) {
		for _, v := range vs {
			if err := s.Append(v); err != nil {
				panic(err)
			}
		}
	}
	quarter := n / 4
	for i := 0; i < 4; i++ {
		appendAll(seq[i*quarter : (i+1)*quarter])
		if err := s.Flush(); err != nil {
			panic(err)
		}
	}
	var lat []float64
	for i := 0; i < 32; i++ {
		appendAll(seq[(i*batch)%(n-batch) : (i*batch)%(n-batch)+batch])
		start := time.Now()
		if err := s.Flush(); err != nil {
			panic(err)
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e6)
	}
	rec.FlushP50MS = percentile(lat, 50)
	rec.FlushP99MS = percentile(lat, 99)
	if err := s.Close(); err != nil {
		panic(err)
	}

	// Open the same directory both ways. With mmap the per-generation
	// work is the CRC pass plus O(metadata) directory rebuilds; heap
	// decode pays the full copy of every payload.
	start := time.Now()
	sm, err := store.Open(dir, nil)
	if err != nil {
		panic(err)
	}
	rec.OpenMmapMS = float64(time.Since(start).Nanoseconds()) / 1e6
	gens := sm.Generations()
	rec.OpenGenerations = len(gens)
	rec.OpenMmapResident = -1
	for _, g := range gens {
		rec.OpenElems += g.Len
		rec.OpenFileBytes += g.FileBytes
		if g.Mmapped && g.ResidentBytes >= 0 {
			if rec.OpenMmapResident < 0 {
				rec.OpenMmapResident = 0
			}
			rec.OpenMmapResident += g.ResidentBytes
		}
	}
	if err := sm.Close(); err != nil {
		panic(err)
	}
	start = time.Now()
	sh, err := store.Open(dir, &store.Options{NoMmap: true})
	if err != nil {
		panic(err)
	}
	rec.OpenHeapMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err := sh.Close(); err != nil {
		panic(err)
	}
	return rec
}

// freezeConfig returns the merge sizes and flush batch the "freeze"
// experiment runs.
func freezeConfig(quick bool) (sizes []int, batch int) {
	return pick(quick, []int{1 << 14}, []int{1 << 20}),
		pick(quick, []int{256}, []int{512})[0]
}

func freezeBenchRecords(quick bool) []freezeBenchRecord {
	sizes, batch := freezeConfig(quick)
	var recs []freezeBenchRecord
	for _, n := range sizes {
		recs = append(recs, measureFreeze(n, batch))
	}
	return recs
}

// runFREEZE prints the freeze experiment.
func runFREEZE(quick bool) {
	fmt.Println("Expectation: the structural merge freezes a compaction-sized merge with")
	fmt.Println("substantially lower peak live heap than materialize+NewStatic (the input")
	fmt.Println("is never held as a []string or pointer trie) while producing byte-identical")
	fmt.Println("output; flush latency stays in single-digit milliseconds; opening the")
	fmt.Println("directory with mmap is markedly faster than heap decode (CRC pass +")
	fmt.Println("O(metadata) per generation vs copying every payload).")
	t := newTable("n", "static merge ms/alloc MB/peak MB", "structural merge ms/alloc MB/peak MB",
		"peak ratio", "flush p50/p99 ms", "gens", "open mmap ms", "open heap ms")
	for _, r := range freezeBenchRecords(quick) {
		t.row(r.N,
			fmt.Sprintf("%.0f / %.1f / %.1f", r.StaticMergeMS, r.StaticAllocMB, r.StaticPeakMB),
			fmt.Sprintf("%.0f / %.1f / %.1f", r.BuilderMergeMS, r.BuilderAllocMB, r.BuilderPeakMB),
			fmt.Sprintf("%.1fx", r.PeakHeapRatio),
			fmt.Sprintf("%.2f / %.2f", r.FlushP50MS, r.FlushP99MS),
			r.OpenGenerations, r.OpenMmapMS, r.OpenHeapMS)
	}
	t.flush()
}
