// Command wtserve serves a durable Wavelet Trie store (flat or
// sharded) over the network: the compact binary protocol on -listen
// and an HTTP/JSON gateway on -http. The gateway carries the
// observability surface: /healthz, Prometheus text on /metrics, pprof
// profiles under /debug/pprof/, and the event-tracer ring as JSON on
// /debug/trace.
// Concurrent client appends are group-committed — coalesced into one
// lock acquisition, one WAL write and at most one fsync per batch —
// reads are served from the store's pinned view (one per store state,
// shared by every request until the state changes), and SIGTERM/SIGINT
// drain gracefully: in-flight requests finish, queued appends commit,
// then the store closes.
//
// Usage:
//
//	wtserve -dir data/                      # serve whatever dir holds
//	                                        #  (a flat store if empty)
//	wtserve -dir data/ -shards 4            # create a sharded one; a count
//	                                        #  that disagrees is refused
//	wtserve -dir data/ -sync                # fsync per group commit
//	wtserve -dir data/ -columns score:u64,ua:bytes   # pin a payload schema
//	wtserve -dir data/ -listen :7070 -http :7071
//	wtserve -dir data/ -slow-op 50ms          # log ops slower than 50ms
//	wtserve -dir replica/ -follow host:7070   # read-only replication
//	                                          #  follower of that primary
//	curl localhost:7071/healthz
//	curl localhost:7071/metrics
//	curl localhost:7071/v1/count?v=GET%20/index.html
//	go tool pprof localhost:7071/debug/pprof/profile
//
// See DESIGN.md §8 for the protocol, and cmd/wtquery -connect for an
// interactive remote client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/server"
	"repro/store"
)

func main() {
	dir := flag.String("dir", "", "store directory (created if empty)")
	shards := flag.Int("shards", 0, "create the store with this many partitions (0 = adopt the directory's layout; a flat store if empty)")
	columns := flag.String("columns", "", "pin a payload column schema at creation, e.g. 'score:u64,meta:bytes' (an existing store's schema is adopted automatically)")
	sync := flag.Bool("sync", false, "fsync the WAL on every commit (one fsync per group commit, not per append)")
	listen := flag.String("listen", "127.0.0.1:7070", "binary protocol listen address")
	httpAddr := flag.String("http", "127.0.0.1:7071", "HTTP/JSON gateway listen address ('' disables)")
	// -cache stays only because bench/ still passes it; the next benchmark PR drops it.
	flag.Int("cache", 0, "accepted and ignored (the result cache is gone)")
	maxConns := flag.Int("max-conns", 256, "concurrent connection cap (backpressure beyond it)")
	maxBatch := flag.Int("max-batch", 1024, "max values per group commit")
	slowOp := flag.Duration("slow-op", 0, "log requests, binary-protocol or gateway, slower than this (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown bound")
	follow := flag.String("follow", "", "run as a read-only replication follower of this primary address")
	followerID := flag.String("follower-id", "", "follower identity in the primary's watermark book (default host-pid)")
	replHeartbeat := flag.Duration("repl-heartbeat", 2*time.Second, "replication heartbeat cadence")
	flag.Parse()

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "wtserve: -dir is required; see -h")
		os.Exit(2)
	}

	cols, err := store.ParseColumns(*columns)
	if err != nil {
		log.Fatalf("wtserve: %v", err)
	}
	db, err := store.OpenSharded(*dir, &store.ShardedOptions{Shards: *shards,
		Store: store.Options{Sync: *sync, Columns: cols}})
	if err != nil {
		log.Fatalf("wtserve: %v", err)
	}

	srv := server.New(db, &server.Options{
		MaxConns:      *maxConns,
		MaxBatch:      *maxBatch,
		SlowOp:        *slowOp,
		ReplHeartbeat: *replHeartbeat,
	})

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("wtserve: %v", err)
	}
	role := "primary"
	if *follow != "" {
		if err := srv.Follow(*follow, *followerID); err != nil {
			log.Fatalf("wtserve: %v", err)
		}
		role = fmt.Sprintf("follower of %s", *follow)
	}
	log.Printf("wtserve: serving %s (%d shard(s), %s) on %s", *dir, db.ShardCount(), role, l.Addr())

	var hs *http.Server
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("wtserve: %v", err)
		}
		hs = &http.Server{Handler: srv.HTTPHandler()}
		go hs.Serve(hl)
		log.Printf("wtserve: HTTP gateway on %s", hl.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("wtserve: %v — draining", s)
	case err := <-serveErr:
		if err != nil {
			log.Printf("wtserve: serve: %v — draining", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Order matters: the gateway stops taking writes first, then the
	// binary listener drains (queued appends commit), then the store
	// closes with everything acknowledged safely in the WAL.
	if hs != nil {
		hs.Shutdown(ctx)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("wtserve: drain: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Fatalf("wtserve: close: %v", err)
	}
	log.Printf("wtserve: store closed cleanly")
}
