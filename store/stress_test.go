package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/store"
)

// TestConcurrentAppendReadCompact is the race-detector stress test:
// several appenders, several snapshot readers and explicit flush/compact
// churn run together (on top of the store's own background flusher).
// Every value is unique and tagged with its writer and per-writer index,
// so afterwards both total content and per-writer order are checkable —
// and each reader verifies rank/select/access consistency inside the
// snapshots it takes. Run with -race (CI does).
func TestConcurrentAppendReadCompact(t *testing.T) {
	const (
		writers   = 3
		perWriter = 400
		readers   = 3
	)
	dir := t.TempDir()
	s, err := store.Open(dir, &store.Options{FlushThreshold: 64, MaxGenerations: 3})
	if err != nil {
		t.Fatal(err)
	}

	var wg, writerWG sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	done := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Append(fmt.Sprintf("w%d/%05d", w, i)); err != nil {
					fail("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := s.Snapshot()
				n := snap.Len()
				if n == 0 {
					continue
				}
				// A snapshot must be internally consistent: the value at a
				// position has positive rank there, and selecting that rank
				// lands back on the position.
				pos := rng.Intn(n)
				v := snap.Access(pos)
				rank := snap.Rank(v, pos+1)
				if rank < 1 {
					fail("reader %d: Rank(%q,%d) = %d", r, v, pos+1, rank)
					return
				}
				back, ok := snap.Select(v, rank-1)
				if !ok || back != pos {
					fail("reader %d: Select(%q,%d) = %d,%v want %d", r, v, rank-1, back, ok, pos)
					return
				}
				if c := snap.CountPrefix("w"); c != n {
					fail("reader %d: CountPrefix(w) = %d, want %d", r, c, n)
					return
				}
				// The snapshot must not drift while we hold it.
				if snap.Len() != n {
					fail("reader %d: snapshot Len drifted %d -> %d", r, n, snap.Len())
					return
				}
			}
		}(r)
	}

	// Explicit flush/compact churn racing the background maintenance.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			var err error
			if i%2 == 0 {
				err = s.Flush()
			} else {
				err = s.Compact()
			}
			if err != nil {
				fail("churn: %v", err)
				return
			}
		}
	}()

	// Wait for the writers, then stop the readers and churner.
	writerWG.Wait()
	close(done)
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	// The sequence is an interleaving of the writers' appends, each in
	// its program order, and the store — live and reopened after the
	// churn — answers as the model of it.
	seq := s.Snapshot().Slice(0, s.Len())
	next := make([]int, writers)
	for pos, v := range seq {
		var w, i int
		if _, err := fmt.Sscanf(v, "w%d/%05d", &w, &i); err != nil || w >= writers || i != next[w] {
			t.Fatalf("position %d holds %q out of its writer's order", pos, v)
		}
		next[w]++
	}
	store.CheckModel(t, s.Snapshot(), seq, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	store.CheckModel(t, s2.Snapshot(), seq, nil)
	if len(seq) != writers*perWriter {
		t.Fatalf("Len = %d, want %d", len(seq), writers*perWriter)
	}
}
