package server_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/server"
	"repro/store"
)

// TestDifferentialConcurrentClients is the ISSUE acceptance contract:
// N concurrent remote clients interleave AppendBatch with reads
// against a wtserve-style server; afterwards the server answers as the
// model over the sequence the store actually committed, and that
// sequence is an interleaving of every client's appends (per-client
// order preserved, nothing lost, nothing invented).
func TestDifferentialConcurrentClients(t *testing.T) {
	diffConcurrentClients(t, 0, 4, 300)
}

// TestDifferentialSharded is the same contract over three shards
// (cross-shard snapshots, group commit through multi-shard batches).
func TestDifferentialSharded(t *testing.T) {
	diffConcurrentClients(t, 3, 3, 150)
}

func diffConcurrentClients(t *testing.T, shards, clients, perClient int) {
	_, addr := startServer(t, shards, &store.Options{FlushThreshold: 1 << 9}, nil)
	appended := make([][]string, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := range appended {
		for j := 0; j < perClient; j++ {
			appended[g] = append(appended[g], fmt.Sprintf("c%d/%04d", g, j))
		}
		wg.Add(1)
		go func(g int, vals []string) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			r := rand.New(rand.NewSource(int64(g)))
			for len(vals) > 0 {
				n := min(1+r.Intn(16), len(vals))
				if err := c.AppendBatch(vals[:n]); err != nil {
					errs[g] = err
					return
				}
				vals = vals[n:]
				// Under concurrency only invariants are checkable live.
				if n, err := c.Count(fmt.Sprintf("c%d/%04d", g, 0)); err != nil || n != 1 {
					errs[g] = fmt.Errorf("Count of own unique value = %d, %v", n, err)
					return
				}
				if _, ok, err := c.SelectPrefix(fmt.Sprintf("c%d/", g), 0); err != nil || !ok {
					errs[g] = fmt.Errorf("own prefix missing: %v", err)
					return
				}
			}
		}(g, appended[g])
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}

	c := dial(t, addr)
	if err := c.Flush(); err != nil { // exercise the post-flush read path too
		t.Fatal(err)
	}
	seq, err := c.Slice(0, clients*perClient)
	if err != nil {
		t.Fatal(err)
	}
	m := model.FromSlice(seq, nil)
	m.Check(t, clientReader{c: c})
	for g, vals := range appended {
		var got []string
		for _, v := range seq {
			if strings.HasPrefix(v, fmt.Sprintf("c%d/", g)) {
				got = append(got, v)
			}
		}
		if !slices.Equal(got, vals) {
			t.Fatalf("client %d's values appear as %d values out of their order", g, len(got))
		}
	}
}
