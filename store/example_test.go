package store_test

import (
	"fmt"
	"os"
	"sync"

	"repro/store"
)

// A store created with several shards fans appends out from concurrent
// writers across hash partitions — each shard with its own WAL, memtable
// and generations — while snapshots serve the single logical sequence in
// global append order. After a restart, the shards recover in parallel
// and the ROUTER log plus the WAL sequence headers restore the
// interleave.
func ExampleOpenSharded() {
	dir, err := os.MkdirTemp("", "wtsharded-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	db, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: 4})
	if err != nil {
		panic(err)
	}

	// Four writers append concurrently; same-shard appends serialize on
	// that shard's lock only, different shards proceed in parallel.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := db.Append(fmt.Sprintf("worker%d/event%02d", w, i)); err != nil {
					panic(err)
				}
			}
		}(w)
	}
	wg.Wait()

	// A cross-shard snapshot pins one consistent view of the global
	// sequence; prefix queries fan out, whole-value queries touch
	// exactly one shard.
	snap := db.Snapshot()
	fmt.Println("appended:", snap.Len())
	fmt.Println("worker2 events:", snap.CountPrefix("worker2/"))
	if err := db.Close(); err != nil {
		panic(err)
	}

	// Restart. Nothing was flushed, so every record is replayed from
	// its shard's WAL and re-interleaved by the sequence headers.
	db, err = store.OpenSharded(dir, nil) // shard count adopted from SHARDS
	if err != nil {
		panic(err)
	}
	defer db.Close()
	fmt.Println("recovered:", db.Len())
	fmt.Println("worker1/event05 count:", db.Count("worker1/event05"))
	// Output:
	// appended: 400
	// worker2 events: 100
	// recovered: 400
	// worker1/event05 count: 1
}

// Every store serves the same view type, whatever its layout: a flat
// store and sharded ones holding the same sequence answer alike, down to
// the content fingerprint — a hash of the values and rows alone, which is
// how a replication follower is checked against its primary.
func ExampleSnapshot_ContentFingerprint() {
	dir, err := os.MkdirTemp("", "wtfingerprint-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	plain, err := store.Open(dir+"/plain", nil)
	if err != nil {
		panic(err)
	}
	defer plain.Close()
	values := []string{"a/1", "b/2", "a/3", "c/4", "a/1"}
	for _, v := range values {
		if err := plain.Append(v); err != nil {
			panic(err)
		}
	}
	want := plain.Snapshot().ContentFingerprint()
	for _, shards := range []int{1, 3} {
		db, err := store.OpenSharded(fmt.Sprintf("%s/sharded%d", dir, shards), &store.ShardedOptions{Shards: shards})
		if err != nil {
			panic(err)
		}
		for _, v := range values {
			if err := db.Append(v); err != nil {
				panic(err)
			}
		}
		snap := db.Snapshot()
		fmt.Printf("%d shard(s): %d under a/, same contents: %v\n", shards, snap.CountPrefix("a/"), snap.ContentFingerprint() == want)
		db.Close()
	}
	// Output:
	// 1 shard(s): 3 under a/, same contents: true
	// 3 shard(s): 3 under a/, same contents: true
}
