package server_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/server"
	"repro/store"
)

// TestDifferentialConcurrentClients is the ISSUE acceptance contract:
// N concurrent remote clients interleave AppendBatch with reads
// against a wtserve-style server; afterwards the server's answers on
// the full op surface must match a flat in-process oracle over the
// sequence the store actually committed, and that sequence must be a
// valid interleaving of every client's appends (per-client order
// preserved, nothing lost, nothing invented).
func TestDifferentialConcurrentClients(t *testing.T) {
	_, addr := startServer(t, 0, &store.Options{FlushThreshold: 1 << 9}, nil)

	const clients = 4
	const perClient = 300
	appended := make([][]string, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		vals := make([]string, perClient)
		for j := range vals {
			vals[j] = fmt.Sprintf("c%d/%04d", g, j)
		}
		appended[g] = vals
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
				n := 1 + r.Intn(16)
				if n > len(vals) {
					n = len(vals)
				}
				if err := c.AppendBatch(vals[:n]); err != nil {
					errs[g] = err
					return
				}
				vals = vals[n:]
				// Interleave reads; under concurrency only invariants
				// are checkable live — the differential pass below does
				// the exact comparison.
				if c2, err := c.Count(fmt.Sprintf("c%d/%04d", g, 0)); err != nil {
					errs[g] = err
					return
				} else if c2 != 1 {
					errs[g] = fmt.Errorf("client %d: Count of own unique value = %d", g, c2)
					return
				}
				if pos, ok, err := c.SelectPrefix(fmt.Sprintf("c%d/", g), 0); err != nil {
					errs[g] = err
					return
				} else if !ok {
					errs[g] = fmt.Errorf("client %d: own prefix missing (pos %d)", g, pos)
					return
				}
			}
			errs[g] = nil
		}(g, vals)
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
	checkInterleaving(t, seq, appended)
	diffReads(t, c, seq)
}

// checkInterleaving verifies seq is an interleaving of the per-client
// append streams: restricted to one client it equals that client's
// values in order.
func checkInterleaving(t *testing.T, seq []string, appended [][]string) {
	t.Helper()
	total := 0
	for _, vals := range appended {
		total += len(vals)
	}
	if len(seq) != total {
		t.Fatalf("sequence has %d elements, want %d", len(seq), total)
	}
	next := make([]int, len(appended))
	for pos, v := range seq {
		var g int
		if _, err := fmt.Sscanf(v, "c%d/", &g); err != nil || g < 0 || g >= len(appended) {
			t.Fatalf("position %d holds unknown value %q", pos, v)
		}
		if next[g] >= len(appended[g]) || appended[g][next[g]] != v {
			t.Fatalf("position %d: %q out of client %d's order (next expected %q)",
				pos, v, g, appended[g][next[g]])
		}
		next[g]++
	}
}

// diffReads compares the remote answers against a flat oracle over seq
// on randomized probes across the whole op surface.
func diffReads(t *testing.T, c *server.Client, seq []string) {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	n := len(seq)
	distinct := map[string]bool{}
	for _, v := range seq {
		distinct[v] = true
	}
	if st, err := c.Stats(); err != nil || st.Len != n || st.Distinct != len(distinct) {
		t.Fatalf("Stats = %d elements, %d distinct, %v; want %d, %d", st.Len, st.Distinct, err, n, len(distinct))
	}
	for trial := 0; trial < 200; trial++ {
		pos := r.Intn(n)
		v := seq[r.Intn(n)]
		pre := v[:1+r.Intn(len(v)-1)]

		if got, err := c.Access(pos); err != nil || got != seq[pos] {
			t.Fatalf("Access(%d) = %q, %v, want %q", pos, got, err, seq[pos])
		}
		wantRank := 0
		for _, s := range seq[:pos] {
			if s == v {
				wantRank++
			}
		}
		if got, err := c.Rank(v, pos); err != nil || got != wantRank {
			t.Fatalf("Rank(%q,%d) = %d, %v, want %d", v, pos, got, err, wantRank)
		}
		wantCount := 0
		wantPrefCount := 0
		for _, s := range seq {
			if s == v {
				wantCount++
			}
			if strings.HasPrefix(s, pre) {
				wantPrefCount++
			}
		}
		if got, err := c.Count(v); err != nil || got != wantCount {
			t.Fatalf("Count(%q) = %d, %v, want %d", v, got, err, wantCount)
		}
		if got, err := c.CountPrefix(pre); err != nil || got != wantPrefCount {
			t.Fatalf("CountPrefix(%q) = %d, %v, want %d", pre, got, err, wantPrefCount)
		}
		idx := r.Intn(wantCount)
		seen, wantPos := 0, -1
		for p, s := range seq {
			if s == v {
				if seen == idx {
					wantPos = p
					break
				}
				seen++
			}
		}
		if got, ok, err := c.Select(v, idx); err != nil || !ok || got != wantPos {
			t.Fatalf("Select(%q,%d) = %d, %v, %v, want %d", v, idx, got, ok, err, wantPos)
		}
		pidx := r.Intn(wantPrefCount)
		seen, wantPos = 0, -1
		for p, s := range seq {
			if strings.HasPrefix(s, pre) {
				if seen == pidx {
					wantPos = p
					break
				}
				seen++
			}
		}
		if got, ok, err := c.SelectPrefix(pre, pidx); err != nil || !ok || got != wantPos {
			t.Fatalf("SelectPrefix(%q,%d) = %d, %v, %v, want %d", pre, pidx, got, ok, err, wantPos)
		}
	}
}

// TestDifferentialSharded runs a smaller version of the same contract
// over a sharded backend (cross-shard snapshots + group commit through
// multi-shard batches).
func TestDifferentialSharded(t *testing.T) {
	_, addr := startServer(t, 3, &store.Options{FlushThreshold: 1 << 8}, nil)
	const clients = 3
	const perClient = 150
	appended := make([][]string, clients)
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for g := 0; g < clients; g++ {
		vals := make([]string, perClient)
		for j := range vals {
			vals[j] = fmt.Sprintf("c%d/%04d", g, j)
		}
		appended[g] = vals
		wg.Add(1)
		go func(g int, vals []string) {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			for len(vals) > 0 {
				n := 1 + g*3
				if n > len(vals) {
					n = len(vals)
				}
				if err := c.AppendBatch(vals[:n]); err != nil {
					errs[g] = err
					return
				}
				vals = vals[n:]
			}
		}(g, vals)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	c := dial(t, addr)
	seq, err := c.Slice(0, clients*perClient)
	if err != nil {
		t.Fatal(err)
	}
	checkInterleaving(t, seq, appended)
	diffReads(t, c, seq)
}
