// Example serve: the store as a network service. Starts a wtserve-style
// server in-process over a fresh sharded store, then drives it like a
// fleet of remote clients would: concurrent batched ingest through the
// group-commit write path, point queries off the store's pinned view, a
// scan that concurrent appends cannot shift, and a
// graceful drain. The same server is what `wtserve -dir` deploys as a
// standalone binary (with the HTTP gateway for curl).
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/server"
	"repro/store"
)

func main() {
	dir, err := os.MkdirTemp("", "wt-serve-example-*")
	check(err)
	defer os.RemoveAll(dir)

	ss, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: 2})
	check(err)
	defer ss.Close()

	srv := server.New(server.ForSharded(ss), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.Serve(l)
	addr := l.Addr().String()
	fmt.Printf("server: sharded store ×2 on %s\n\n", addr)

	// Concurrent clients ingest with batched appends. Every batch is one
	// round trip; server-side, batches that arrive together are folded
	// into one group commit — one lock, one WAL write, one fsync.
	const clients, batches, batchSize = 4, 25, 20
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := server.Dial(addr)
			check(err)
			defer c.Close()
			for b := 0; b < batches; b++ {
				batch := make([]string, batchSize)
				for k := range batch {
					batch[k] = fmt.Sprintf("user%d/event/%04d", g, b*batchSize+k)
				}
				check(c.AppendBatch(batch))
			}
		}(g)
	}
	wg.Wait()

	c, err := server.Dial(addr)
	check(err)
	defer c.Close()

	st, err := c.Stats()
	check(err)
	m := series(c)
	fmt.Printf("ingested %d events from %d clients\n", st.Len, clients)
	fmt.Printf("group commit: %.0f appends in %.0f commits (%.1f per WAL write)\n\n",
		m["wt_batcher_commit_values_total"], m["wt_batcher_commits_total"],
		m["wt_batcher_commit_values_total"]/max(1, m["wt_batcher_commits_total"]))

	// Point queries: while nothing is written every request is served from
	// the same pinned view — a pointer load, then the trie walk.
	probe := "user1/event/0000"
	n, err := c.Count(probe)
	check(err)
	fmt.Printf("Count(%q) = %d\n", probe, n)
	u2, err := c.CountPrefix("user2/")
	check(err)
	fmt.Printf("CountPrefix(\"user2/\") = %d\n\n", u2)

	// A scan pins the sequence length at its first page: the append below
	// is invisible to it, visible to the next one.
	sawDuring := 0
	check(c.Scan(0, -1, 512, func(pos int, v string) bool {
		if sawDuring == 0 {
			check(c.Append("intruder/mid-scan"))
		}
		sawDuring++
		return true
	}))
	st, err = c.Stats()
	check(err)
	fmt.Printf("scan saw %d events (pinned length); store now holds %d\n", sawDuring, st.Len)

	check(srv.Shutdown(context.Background()))
	fmt.Println("drained cleanly")
}

// series reads the server's unlabelled counters and gauges over the
// wire — the same Prometheus text /metrics serves.
func series(c *server.Client) map[string]float64 {
	text, err := c.MetricsText()
	check(err)
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if f, err := strconv.ParseFloat(val, 64); err == nil {
				out[name] = f
			}
		}
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve example:", err)
		os.Exit(1)
	}
}
