package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/workload"
	"repro/store"
)

// shardBenchRecord is one machine-readable row of the "shard"
// experiment: multi-writer append throughput at a given shard count,
// busy-reader latency on a pinned cross-shard snapshot while writers
// run, and recovery time (parallel shard recovery + interleave
// reconciliation). The configuration lives in the row itself — the
// shard/writer axes are the experiment.
type shardBenchRecord struct {
	Shards       int     `json:"shards"`
	Writers      int     `json:"writers"`
	N            int     `json:"n"`
	AppendNS     float64 `json:"append_ns"` // wall-clock ns per append across all writers
	AppendsPerMS float64 `json:"appends_per_ms"`
	AccessBusyNS float64 `json:"access_busy_ns"`
	RankBusyNS   float64 `json:"rank_busy_ns"`
	RecoverMS    float64 `json:"recover_ms"`
}

// shardBenchConfig is the grid the "shard" experiment sweeps, plus the
// parallelism the host actually granted — wall-clock writer scaling is
// bounded by min(writers, shards, GOMAXPROCS), so the numbers are
// meaningless to compare across hosts without it.
type shardBenchConfig struct {
	ShardCounts []int `json:"shard_counts"`
	Writers     []int `json:"writers"`
	N           int   `json:"n"`
	GOMAXPROCS  int   `json:"gomaxprocs"`
}

func shardConfig(quick bool) shardBenchConfig {
	procs := runtime.GOMAXPROCS(0)
	if quick {
		return shardBenchConfig{ShardCounts: []int{1, 2}, Writers: []int{1, 4}, N: 1 << 13, GOMAXPROCS: procs}
	}
	return shardBenchConfig{ShardCounts: []int{1, 2, 4, 8}, Writers: []int{1, 2, 4, 8}, N: 1 << 15, GOMAXPROCS: procs}
}

// measureShard runs one cell of the grid: writers split n appends over
// a sharded store with auto-flush live (independent per-shard flushing
// is part of what is being measured), then a pinned snapshot serves
// reads while a writer keeps appending, then the store recovers from a
// clean shutdown.
func measureShard(shards, writers, n int) shardBenchRecord {
	rec := shardBenchRecord{Shards: shards, Writers: writers, N: n}
	seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
	dir, err := os.MkdirTemp("", "wtbench-shard-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	opts := &store.ShardedOptions{
		Shards: shards,
		Store:  store.Options{FlushThreshold: 1 << 13, MaxGenerations: 8},
	}
	ss, err := store.OpenSharded(dir, opts)
	if err != nil {
		panic(err)
	}

	// Multi-writer append throughput: wall-clock over the whole batch,
	// so lock contention and flush interference are in the number.
	per := n / writers
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == writers-1 {
			hi = n
		}
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			for _, v := range part {
				if err := ss.Append(v); err != nil {
					panic(err)
				}
			}
		}(seq[lo:hi])
	}
	wg.Wait()
	wall := float64(time.Since(start).Nanoseconds())
	rec.AppendNS = wall / float64(n)
	rec.AppendsPerMS = float64(n) / (wall / 1e6)

	// Busy-reader latency: a snapshot pinned before the writer batch
	// keeps serving its prefix; each latency is sampled only while the
	// writer is running.
	r := rand.New(rand.NewSource(17))
	probes := make([]string, 64)
	for i := range probes {
		probes[i] = seq[r.Intn(n)]
	}
	extras := make([]string, n/8)
	for i := range extras {
		extras[i] = probes[i&63]
	}
	writeBatch := func(vals []string) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, v := range vals {
				if err := ss.Append(v); err != nil {
					panic(err)
				}
			}
		}()
		return done
	}
	busy := ss.Snapshot()
	bn := busy.Len()
	rec.AccessBusyNS = measureWhile(writeBatch(extras[:len(extras)/2]),
		func(i int) { busy.Access(r.Intn(bn)) })
	rec.RankBusyNS = measureWhile(writeBatch(extras[len(extras)/2:]),
		func(i int) { busy.Rank(probes[i&63], bn) })

	want := ss.Len()
	if err := ss.Close(); err != nil {
		panic(err)
	}

	// Recovery: parallel per-shard generation load + WAL replay, plus
	// the cross-shard interleave reconciliation and ROUTER rewrite.
	start = time.Now()
	ss2, err := store.OpenSharded(dir, opts)
	if err != nil {
		panic(err)
	}
	rec.RecoverMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if ss2.Len() != want {
		panic(fmt.Sprintf("shard bench: recovered %d elements, want %d", ss2.Len(), want))
	}
	ss2.Close()
	return rec
}

func shardBenchRecords(quick bool) []shardBenchRecord {
	cfg := shardConfig(quick)
	var recs []shardBenchRecord
	for _, shards := range cfg.ShardCounts {
		for _, writers := range cfg.Writers {
			recs = append(recs, measureShard(shards, writers, cfg.N))
		}
	}
	return recs
}

// runSHARD prints the sharded-store experiment.
func runSHARD(quick bool) {
	fmt.Println("Expectation: append throughput scales with writer count once shards >= 2")
	fmt.Println("(near-linear to 4 writers; a single shard serializes on one memtable lock);")
	fmt.Println("busy-reader latency stays near idle (cross-shard snapshots isolate readers);")
	fmt.Println("recovery replays shards in parallel and reconciles the interleave.")
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		fmt.Printf("NOTE: GOMAXPROCS=%d — wall-clock writer scaling is capped at %dx on this\n", procs, procs)
		fmt.Println("host regardless of shard count; shard gains then show up mainly as smaller")
		fmt.Println("per-shard memtables (shallower tries to insert into), not as parallel speedup.")
	}
	t := newTable("shards", "writers", "n", "append ns", "appends/ms",
		"access busy ns", "rank busy ns", "recover ms")
	for _, r := range shardBenchRecords(quick) {
		t.row(r.Shards, r.Writers, r.N, r.AppendNS, fmt.Sprintf("%.0f", r.AppendsPerMS),
			r.AccessBusyNS, r.RankBusyNS, r.RecoverMS)
	}
	t.flush()
}
