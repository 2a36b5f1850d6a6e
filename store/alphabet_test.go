package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// TestAlphabetSizeDerived holds the derived distinct count, with the rest
// of the model's surface, to the model at every step of a store's life —
// overlapping generations, a live memtable, partial and full compaction,
// reopen — on a plain store and on a sharded one (where it is the sum over
// shards).
func TestAlphabetSizeDerived(t *testing.T) {
	pool := workload.URLLog(1200, 61, workload.DefaultURLConfig())
	batch := func(vs []string) model.Cmd { return model.Cmd{Op: model.OpBatch, Vals: vs} }
	flush := model.Cmd{Op: model.OpFlush}
	for _, l := range []ModelLayout{{Name: "plain"}, {Name: "sharded", Shards: 3}} {
		t.Run(l.Name, func(t *testing.T) {
			sys, m := l.Open(t), model.New()
			defer sys.Close()
			step := func(cmds ...model.Cmd) {
				t.Helper()
				model.Apply(t, sys, m, cmds...)
				if err := sys.Check(m); err != nil {
					t.Fatalf("after %v: %v", cmds, err)
				}
			}
			step()
			// Five generations whose alphabets overlap their neighbours'
			// (and, the URL log being skewed, everyone's).
			for g := 0; g < 5; g++ {
				step(batch(pool[g*150 : g*150+300]))
				step(flush)
			}
			step(batch(pool[100:400]), batch(pool[1000:])) // nothing new, then mostly new
			if err := compactEach(sys.(*modelStore).s, 3); err != nil {
				t.Fatal(err)
			}
			step()
			step(model.Cmd{Op: model.OpCompact})
			step(model.Cmd{Op: model.OpReopen})
			step(batch([]string{pool[0], "never/seen/before", pool[1100]}))
			step(flush)
		})
	}
}

// TestAlphabetSizeSealedMemtable covers the one state no quiescent store
// shows: mid-flush, when a sealed memtable sits between the generations
// and the live one.
func TestAlphabetSizeSealedMemtable(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	pool := workload.URLLog(900, 62, workload.DefaultURLConfig())
	for g := 0; g < 3; g++ {
		if err := s.AppendBatch(pool[g*100 : g*100+300]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendBatch(pool[400:700]); err != nil {
		t.Fatal(err)
	}
	sh := s.shards[0]
	st := sh.state.Load()
	live := newMemtable(nil, nil)
	live.applyBatch(pool[600:], nil, nil)
	sn := sh.snapshotOf(&storeState{gens: st.gens, sealed: st.mem, mem: live}, live.n.Load())
	if got, want := sn.AlphabetSize(), len(workload.Distinct(pool)); got != want {
		t.Fatalf("AlphabetSize with a sealed memtable = %d, want %d", got, want)
	}
}

// TestAlphabetSizeConcurrent asks for the count while appenders, the
// background flusher and the compactor run (CI runs it under -race): every
// answer lies between the quiescent counts before and after. (Nothing more
// is promised: an answer takes each live memtable as it stands, so it may
// lead its snapshot, and a sharded view that ends before a shard's live
// memtable leaves that memtable out — two answers need not be ordered.)
func TestAlphabetSizeConcurrent(t *testing.T) {
	for name, shards := range map[string]int{"plain": 0, "sharded": 2} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: shards, Store: Options{FlushThreshold: 128, MaxGenerations: 3}})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const writers, perWriter, hot = 3, 600, 40
			base := make([]string, hot)
			for i := range base {
				base[i] = fmt.Sprintf("hot/%03d", i)
			}
			if err := s.AppendBatch(base); err != nil {
				t.Fatal(err)
			}
			before := s.AlphabetSize()
			if before != hot {
				t.Fatalf("quiescent AlphabetSize before = %d, want %d", before, hot)
			}
			after := hot + writers*perWriter/2

			var writerWG sync.WaitGroup
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					for i := 0; i < perWriter; i += 4 {
						// Half new values, half repeats of the hot set.
						batch := []string{
							fmt.Sprintf("w%d/%05d", w, i), base[(w+i)%hot],
							fmt.Sprintf("w%d/%05d", w, i+1), base[(w+i+1)%hot],
						}
						if err := s.AppendBatch(batch); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { writerWG.Wait(); close(done) }()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				if got := s.AlphabetSize(); got < before || got > after {
					t.Errorf("AlphabetSize under appends = %d, want within [%d, %d]", got, before, after)
					break
				}
			}
			<-done
			if got := s.AlphabetSize(); got != after {
				t.Fatalf("quiescent AlphabetSize after = %d, want %d", got, after)
			}
		})
	}
}

// alphabetLayout opens a store of three overlapping generations and a
// memtable over a fixed alphabet, every value reps times over: the tries'
// shapes do not depend on reps, their lengths do.
func alphabetLayout(t *testing.T, sharded bool, reps int) (touch func(), snapshot func() interface{ AlphabetSize() int }, distinct int) {
	t.Helper()
	s, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: map[bool]int{true: 2}[sharded], Store: *testOpts()})
	if err != nil {
		t.Fatal(err)
	}
	snapshot = func() interface{ AlphabetSize() int } { return s.Snapshot() }
	t.Cleanup(func() { s.Close() })
	vals := workload.URLLog(700, 96, workload.DefaultURLConfig())
	for g := 0; g < 4; g++ {
		for r := 0; r < reps; r++ {
			if err := s.AppendBatch(vals[g*150 : g*150+250]); err != nil {
				t.Fatal(err)
			}
		}
		if g < 3 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// touch appends a value the layout already holds: the store's state
	// changes, its alphabet does not, and the next Snapshot() has a view to
	// build (on an unchanged state it returns the pinned one, whose count is
	// remembered).
	touch = func() {
		if err := s.AppendBatch(vals[699:]); err != nil {
			t.Fatal(err)
		}
	}
	return touch, snapshot, len(workload.Distinct(vals))
}

// TestAlphabetSizeAllocations guards the walk's cost model: what it
// allocates follows the tries' shapes (a source and a few stacks per
// trie), not their lengths — sixteen times the elements over the same
// alphabet allocate exactly as often. Each run appends first, so each run
// counts on a view built for it.
func TestAlphabetSizeAllocations(t *testing.T) {
	measure := func(reps int) float64 {
		touch, snapshot, distinct := alphabetLayout(t, false, reps)
		return testing.AllocsPerRun(20, func() {
			touch()
			if got := snapshot().AlphabetSize(); got != distinct {
				t.Fatalf("AlphabetSize = %d, want %d", got, distinct)
			}
		})
	}
	small, large := measure(1), measure(16)
	t.Logf("append + Snapshot().AlphabetSize(): %.0f allocations at n, %.0f at 16n", small, large)
	if large != small {
		t.Fatalf("AlphabetSize allocates %.0f times at n and %.0f at 16n — something grows with the elements", small, large)
	}
	if small > 60 {
		t.Fatalf("an append, a view and AlphabetSize over three generations and a memtable allocate %.0f times, want at most 60", small)
	}
}

// TestSnapshotNeverCountsAlphabet guards the request path: building a
// view — what the first request after a state change does — must not run
// the alphabet walk. The walk allocates a source per trie and its stacks;
// building a view allocates the view alone — the snapshot, its offsets and
// a boxed segment per trie, whatever the tries hold — and asking for the
// count afterwards is what pays. Every run appends first: on an unchanged
// state Snapshot() builds nothing (TestSnapshotPinned) and there would be
// no walk for the guard to see.
func TestSnapshotNeverCountsAlphabet(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sharded bool
		bound   float64
	}{
		{"plain", false, 14},
		{"sharded", true, 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, reps := range []int{1, 16} {
				touch, snapshot, _ := alphabetLayout(t, tc.sharded, reps)
				allocs[i] = testing.AllocsPerRun(50, func() { touch(); snapshot() })
				if walk := testing.AllocsPerRun(5, func() { touch(); snapshot().AlphabetSize() }); walk < allocs[i]+10 {
					t.Fatalf("the walk allocates only %.0f times beside the append's and Snapshot()'s %.0f: this guard cannot see it", walk, allocs[i])
				}
			}
			t.Logf("append + Snapshot(): %.0f allocations at n, %.0f at 16n", allocs[0], allocs[1])
			if allocs[0] != allocs[1] || allocs[0] > tc.bound {
				t.Fatalf("append + Snapshot() allocates %.0f times at n and %.0f at 16n, want the same and at most %.0f", allocs[0], allocs[1], tc.bound)
			}
		})
	}
}

// TestGenerationBounds: GenInfo's MinValue/MaxValue are the leftmost and
// the rightmost leaf of each generation's trie, and reads over generations
// with disjoint key ranges answer from the right one.
func TestGenerationBounds(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	var all []string
	for g := 0; g < 4; g++ {
		for i := 0; i < 50; i++ {
			v := fmt.Sprintf("range%d/key%04d", g, i)
			mustAppend(t, s, v)
			all = append(all, v)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkBounds := func(s *Store, want [][2]string) {
		t.Helper()
		gens := s.Generations()
		if len(gens) != len(want) {
			t.Fatalf("generations = %d, want %d", len(gens), len(want))
		}
		for g, gi := range gens {
			if gi.MinValue != want[g][0] || gi.MaxValue != want[g][1] {
				t.Fatalf("gen %d bounds [%q,%q], want [%q,%q]", g, gi.MinValue, gi.MaxValue, want[g][0], want[g][1])
			}
		}
	}
	var want [][2]string
	for g := 0; g < 4; g++ {
		want = append(want, [2]string{fmt.Sprintf("range%d/key0000", g), fmt.Sprintf("range%d/key0049", g)})
	}
	checkBounds(s, want)
	sn := s.Snapshot()
	for i, v := range all {
		if c := sn.Count(v); c != 1 {
			t.Fatalf("Count(%q) = %d, want 1", v, c)
		}
		if pos, ok := sn.Select(v, 0); !ok || pos != i {
			t.Fatalf("Select(%q,0) = %d,%v want %d", v, pos, ok, i)
		}
	}
	if c := sn.CountPrefix("range2/"); c != 50 {
		t.Fatalf("CountPrefix(range2/) = %d, want 50", c)
	}
	if c := sn.Count("range9/absent"); c != 0 {
		t.Fatalf("Count(absent) = %d", c)
	}

	// The empty string sorts first, a value the others are prefixes of
	// last; the bounds survive compaction and a reopen (mapped or not).
	mustAppend(t, s, "range3/key0049/deeper", "")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkBounds(s, append(want, [2]string{"", "range3/key0049/deeper"}))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkBounds(s, [][2]string{{"", "range3/key0049/deeper"}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, testOpts())
	defer s.Close()
	checkBounds(s, [][2]string{{"", "range3/key0049/deeper"}})
}

// BenchmarkAlphabetSize times the derived count on the benchmark's
// point_read layout — eight generations of 16 384 URL-log values and a
// 1 024-value memtable — and on the same store compacted and flushed,
// where one trie holds everything and the count is its own leaf count.
func BenchmarkAlphabetSize(b *testing.B) {
	s, err := Open(b.TempDir(), testOpts())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	seq := workload.URLLog(8*16384+1024, 1, workload.DefaultURLConfig())
	for g := 0; g < 8; g++ {
		if err := s.AppendBatch(seq[g*16384 : (g+1)*16384]); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.AppendBatch(seq[8*16384:]); err != nil {
		b.Fatal(err)
	}
	want := len(workload.Distinct(seq))
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A view built for the iteration: the pinned one remembers its count.
			st := s.shards[0].state.Load()
			if got := s.shards[0].snapshotOf(st, st.mem.n.Load()).AlphabetSize(); got != want {
				b.Fatalf("AlphabetSize = %d, want %d", got, want)
			}
		}
	}
	b.Run("8x16384+1024", run)
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	b.Run("compacted", run)
}

// TestAlphabetSizeOfHeldView: a view counts the distinct strings it
// holds, however much was appended, flushed and compacted after it was
// taken and before it is first asked — on a flat store, where the view
// holds a prefix of its memtable, and on three shards, where a view cut
// short of the watermark also holds a prefix of a generation.
func TestAlphabetSizeOfHeldView(t *testing.T) {
	vals := workload.URLLog(900, 41, workload.DefaultURLConfig())
	distinct := func(n int) int { return len(workload.Distinct(vals[:n])) }
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: shards, Store: *testOpts()})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for _, step := range []func() error{
				func() error { return s.AppendBatch(vals[:150]) },
				s.Flush,
				func() error { return s.AppendBatch(vals[150:300]) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			held := s.Snapshot()
			cut := &Snapshot{n: 100, schema: held.schema, r: held.r, shards: make([]*shardView, len(held.shards))}
			for i, v := range held.shards {
				cut.shards[i] = v.prefixed(cut.cut(i, cut.n))
			}
			for _, step := range []func() error{
				func() error { return s.AppendBatch(vals[300:]) },
				s.Flush,
				s.Compact,
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := held.AlphabetSize(), distinct(300); got != want {
				t.Errorf("held view: AlphabetSize = %d, want %d", got, want)
			}
			if got, want := cut.AlphabetSize(), distinct(100); got != want {
				t.Errorf("view cut at 100: AlphabetSize = %d, want %d", got, want)
			}
			if got, want := s.AlphabetSize(), distinct(len(vals)); got != want {
				t.Errorf("store: AlphabetSize = %d, want %d", got, want)
			}
		})
	}
}
