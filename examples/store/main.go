// Store lifecycle: the durable, concurrently readable face of the
// Wavelet Trie. An access log is appended into a crash-recoverable
// log-structured store — WAL + memtable in front, frozen generations
// behind — then the process "crashes" mid-append (a torn record is
// forged at the WAL tail) and the store is reopened: every acknowledged
// write survives, the torn tail is truncated cleanly, and a snapshot
// taken before more writes keeps serving its consistent view. A store
// opened on an empty directory is flat: one shard, which is the
// directory itself, with no router in front of it.
package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/store"
)

func main() {
	dir, err := os.MkdirTemp("", "wtstore-example-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	// Day one: index requests as they arrive. Each Append is written to
	// the write-ahead log before it is acknowledged.
	db, err := store.Open(dir, nil)
	if err != nil {
		panic(err)
	}
	day1 := []string{
		"site.example/home",
		"site.example/cart",
		"site.example/home",
		"api.example/v1/users",
		"site.example/home",
	}
	for _, url := range day1 {
		if err := db.Append(url); err != nil {
			panic(err)
		}
	}
	// Flush seals the memtable into an immutable frozen generation (the
	// paper's §3 succinct encoding on disk) and retires its WAL.
	if err := db.Flush(); err != nil {
		panic(err)
	}
	// Day two arrives; these live in the new WAL + memtable only.
	day2 := []string{"api.example/v1/items", "api.example/v1/users"}
	for _, url := range day2 {
		if err := db.Append(url); err != nil {
			panic(err)
		}
	}
	fmt.Printf("before crash: n=%d, shards=%d, generations=%d, memtable=%d\n",
		db.Len(), db.ShardCount(), len(db.Generations()), db.MemLen())
	if err := db.Close(); err != nil {
		panic(err)
	}

	// CRASH. The process dies mid-append: forge a torn record — a length
	// prefix promising more bytes than ever hit the disk — at the tail of
	// the current WAL, exactly what a power cut can leave behind.
	tearWAL(dir)

	// Reopen: the generation loads from its snapshot, the WAL tail
	// replays, and the torn record is truncated — never replayed, never
	// a panic.
	db2, err := store.Open(dir, nil)
	if err != nil {
		panic(err)
	}
	defer db2.Close()
	fmt.Printf("after recovery: n=%d (all %d acknowledged writes intact)\n",
		db2.Len(), len(day1)+len(day2))
	fmt.Printf("Count(site.example/home)     = %d\n", db2.Count("site.example/home"))
	fmt.Printf("CountPrefix(api.example/)    = %d\n", db2.CountPrefix("api.example/"))

	// Snapshot isolation: a reader's view is pinned while writers move on.
	snap := db2.Snapshot()
	for _, url := range []string{"cdn.example/a.js", "cdn.example/b.css"} {
		if err := db2.Append(url); err != nil {
			panic(err)
		}
	}
	fmt.Printf("snapshot still sees n=%d while the store grew to n=%d\n",
		snap.Len(), db2.Len())
}

// tearWAL appends half a record to the newest WAL file: a header
// announcing a payload that never made it to disk.
func tearWAL(dir string) {
	entries, err := os.ReadDir(dir)
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
	f, err := os.OpenFile(filepath.Join(dir, newest), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	// u32 length = 100, u32 checksum, then... nothing: the power went out.
	if _, err := f.Write([]byte{100, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		panic(err)
	}
}
