// Sharded store lifecycle: multi-writer scaling with cross-shard
// snapshots. Four concurrent writers append into a store created with
// four hash partitions (each shard a full WAL + memtable + generations
// engine in its own subdirectory, behind a SHARDS manifest), a
// cross-shard snapshot pins one consistent view of the interleaved
// sequence, then the process "crashes" mid-append — a torn record is
// forged at one shard's WAL tail — and the store is reopened: the
// shards recover in parallel, the ROUTER log plus the WAL sequence
// headers rebuild the global append order, and only the torn record's
// shard loses its unsynced suffix.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/store"
)

func main() {
	dir, err := os.MkdirTemp("", "wtsharded-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: 4})
	if err != nil {
		panic(err)
	}

	// Four writers ingest concurrently. Appends to different shards
	// proceed in parallel — only same-shard appends share a lock.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				url := fmt.Sprintf("host%02d.example/path/%d", w, i%37)
				if err := db.Append(url); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Flush every shard into a frozen generation, then append a short
	// tail that stays WAL-resident — the mixed layout (generations
	// behind, live WAL records in front) a real crash interrupts.
	if err := db.Flush(); err != nil {
		panic(err)
	}
	for w := 0; w < 4; w++ {
		if err := db.Append(fmt.Sprintf("host%02d.example/tail", w)); err != nil {
			panic(err)
		}
	}

	snap := db.Snapshot()
	fmt.Printf("before crash: n=%d over %d shards (per shard:", snap.Len(), db.ShardCount())
	for i := 0; i < db.ShardCount(); i++ {
		fmt.Printf(" %d", db.ShardLen(i))
	}
	fmt.Println(")")
	fmt.Printf("CountPrefix(host01.example/) = %d\n", snap.CountPrefix("host01.example/"))
	if err := db.Close(); err != nil {
		panic(err)
	}

	// CRASH: forge a torn record at one shard's WAL tail — a length
	// prefix promising bytes that never reached the disk.
	tearShardWAL(filepath.Join(dir, "shard-001"))

	// Reopen: Open adopts whatever layout the directory holds, so the
	// shard count comes from SHARDS. Every shard recovers in parallel; the
	// torn record is truncated, every complete record survives, and the
	// global interleave is rebuilt exactly.
	db2, err := store.Open(dir, nil)
	if err != nil {
		panic(err)
	}
	defer db2.Close()
	fmt.Printf("after recovery: n=%d over %d shards\n", db2.Len(), db2.ShardCount())
	fmt.Printf("CountPrefix(host01.example/) = %d\n", db2.CountPrefix("host01.example/"))
	fmt.Printf("Count(host03.example/tail)   = %d\n", db2.Count("host03.example/tail"))

	// Cross-shard order is intact: each writer's appends are still in
	// its program order within the recovered global sequence.
	pos0, _ := db2.Select("host02.example/path/0", 0)
	pos1, _ := db2.Select("host02.example/path/1", 0)
	fmt.Printf("writer 2's first two appends in order: %v\n", pos0 < pos1)
}

// tearShardWAL appends half a record to the newest WAL in a shard
// directory: a header announcing a payload the power cut swallowed.
func tearShardWAL(shardDir string) {
	entries, err := os.ReadDir(shardDir)
	if err != nil {
		panic(err)
	}
	newest := ""
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".log" && name > newest {
			newest = name
		}
	}
	f, err := os.OpenFile(filepath.Join(shardDir, newest), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{100, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		panic(err)
	}
}
