package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// viewStores opens the two store kinds the pinned-view tests drive, each
// with three generations and a live memtable.
func viewStores(t *testing.T) (*Store, *Store) {
	t.Helper()
	s := mustOpen(t, t.TempDir(), testOpts())
	ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 3, Store: *testOpts()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); ss.Close() })
	for g := 0; g < 4; g++ {
		var vs []string
		for i := 0; i < 60; i++ {
			vs = append(vs, fmt.Sprintf("g%d/v%03d", g, i%45))
		}
		if err := s.AppendBatch(vs); err != nil {
			t.Fatal(err)
		}
		if err := ss.AppendBatch(vs); err != nil {
			t.Fatal(err)
		}
		if g < 3 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, ss
}

// TestSnapshotPinned: on an unchanged state Snapshot() is a pointer load —
// no allocation — and every goroutine gets the identical view (CI runs this
// under -race: readers share it and must not write to it).
func TestSnapshotPinned(t *testing.T) {
	s, ss := viewStores(t)
	for name, snapshot := range map[string]func() any{
		"plain":   func() any { return s.Snapshot() },
		"sharded": func() any { return ss.Snapshot() },
	} {
		t.Run(name, func(t *testing.T) {
			pinned := snapshot()
			if a := testing.AllocsPerRun(100, func() { snapshot() }); a != 0 {
				t.Fatalf("Snapshot() on an unchanged state allocates %.0f times, want 0", a)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if snapshot() != pinned {
							t.Error("Snapshot() on an unchanged state returned a different view")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
	// Queries through the shared views, from every goroutine at once.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sn, ssn := s.Snapshot(), ss.Snapshot()
			for i := g; i < sn.Len(); i += 8 {
				v := sn.Access(i)
				if w := ssn.Access(i); w != v {
					t.Errorf("Access(%d): plain %q, sharded %q", i, v, w)
					return
				}
				if a, b := sn.Rank(v, i+1), ssn.Rank(v, i+1); a != b || a < 1 {
					t.Errorf("Rank(%q,%d): plain %d, sharded %d", v, i+1, a, b)
					return
				}
			}
			if a, b := sn.AlphabetSize(), ssn.AlphabetSize(); a != b {
				t.Errorf("AlphabetSize: plain %d, sharded %d", a, b)
			}
		}(g)
	}
	wg.Wait()
}

// TestSnapshotSeesAcknowledgedAppends races readers against an appender, a
// flusher and a compactor for 10 000 appends: every view a reader obtains
// covers at least the appends that reader had already seen acknowledged,
// and answers for its own last position.
func TestSnapshotSeesAcknowledgedAppends(t *testing.T) {
	const total = 10000
	value := func(i int) string { return fmt.Sprintf("v/%05d", i) }
	type view interface {
		Len() int
		Access(pos int) string
	}
	type raced interface {
		Append(v string) error
		Flush() error
		Compact() error
	}
	s := mustOpen(t, t.TempDir(), testOpts())
	ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 2, Store: *testOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer ss.Close()
	for name, tc := range map[string]struct {
		st       raced
		snapshot func() view
	}{
		"plain":   {s, func() view { return s.Snapshot() }},
		"sharded": {ss, func() view { return ss.Snapshot() }},
	} {
		t.Run(name, func(t *testing.T) {
			var acked atomic.Int64
			done := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						seen := int(acked.Load())
						sn := tc.snapshot()
						n := sn.Len()
						if n < seen {
							t.Errorf("a view of %d elements after %d appends were acknowledged", n, seen)
							return
						}
						if n > 0 {
							if got := sn.Access(n - 1); got != value(n-1) {
								t.Errorf("Access(%d) = %q on a view of %d, want %q", n-1, got, n, value(n-1))
								return
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() { // flusher and compactor
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if err := tc.st.Flush(); err != nil {
						t.Error(err)
						return
					}
					if i%4 == 3 {
						if err := tc.st.Compact(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
			for i := 0; i < total && !t.Failed(); i++ {
				if err := tc.st.Append(value(i)); err != nil {
					t.Fatal(err)
				}
				acked.Store(int64(i + 1))
			}
			close(done)
			wg.Wait()
			if sn := tc.snapshot(); sn.Len() != total {
				t.Fatalf("final view holds %d, want %d", sn.Len(), total)
			}
		})
	}
}

// TestCompactionRetiresPinnedView: once a compaction has committed, the
// store's pinned views hold no generation the compaction retired — before
// the next reader comes, and after it has. (A view a reader still holds
// keeps its generations, which is the point of a view.)
func TestCompactionRetiresPinnedView(t *testing.T) {
	s, ss := viewStores(t)
	// live maps the tries of the store's current generations.
	check := func(stage string, shards []*shard, v *Snapshot) {
		t.Helper()
		live := map[any]bool{}
		for _, sh := range shards {
			ids := map[uint64]bool{}
			for _, gi := range sh.generations() {
				ids[gi.ID] = true
			}
			for _, g := range sh.state.Load().gens {
				if ids[g.id] {
					live[g.ix] = true
				}
			}
		}
		if v == nil {
			return
		}
		for _, sh := range append(append([]*shardView(nil), v.base...), v.shards...) {
			for _, seg := range sh.segs {
				inner := seg.segment
				if c, ok := inner.(clampSeg); ok {
					inner = c.segment
				}
				if f, ok := inner.(frozenSeg); ok && !live[f.Frozen] {
					t.Fatalf("%s: a pinned view still holds a retired generation", stage)
				}
			}
		}
	}

	held, sheld := s.Snapshot(), ss.Snapshot()
	want := held.Slice(0, held.Len())
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Generations()); got != 1 {
		t.Fatalf("plain store has %d generations after Compact, want 1", got)
	}
	check("after Compact", s.shards, s.shards[0].view.Load())
	check("after sharded Compact", ss.shards, ss.view.Load())
	if s.Snapshot() == held || ss.Snapshot() == sheld {
		t.Fatal("Snapshot() after a compaction returned the view from before it")
	}
	check("after Compact and Snapshot", s.shards, s.shards[0].view.Load())
	check("after sharded Compact and Snapshot", ss.shards, ss.view.Load())
	for i, v := range want {
		if got, sgot := held.Access(i), sheld.Access(i); got != v || sgot != v {
			t.Fatalf("views held across the compaction read %q / %q at %d, want %q", got, sgot, i, v)
		}
	}
}
