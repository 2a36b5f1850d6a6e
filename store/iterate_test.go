package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/workload"
)

// TestSnapshotIterateMatchesAccess holds Iterate/Slice — the empty
// prefix's page — and the rest of the model's surface to the model, flat
// and over 2 and 3 shards, each store three flushed generations a shard
// and a live memtable tail that crosses a router chunk boundary, so pages
// read frozen router chunks and the unfrozen router tail alike.
func TestSnapshotIterateMatchesAccess(t *testing.T) {
	const n = 3*routerChunkLen + 500
	seq := workload.URLLog(n, 17, workload.DefaultURLConfig())
	for _, l := range []ModelLayout{{Name: "flat"}, {Name: "2 shards", Shards: 2}, {Name: "3 shards", Shards: 3}} {
		sys, m := l.Open(t), model.New()
		// The memtable holds [12000, n), across 3·4096.
		model.Apply(t, sys, m, model.Flushed(seq, nil, 4000, 8000, 12000)...)
		sn := sys.(*modelStore).s.Snapshot()
		for i, sh := range sn.shards {
			if segs := len(sh.segs); segs != 4 { // 3 gens + live memtable view
				t.Fatalf("%s: shard %d has %d segments, want 4", l.Name, i, segs)
			}
		}
		if sn.r != nil {
			if ri := sn.r.info(); ri.FrozenChunks != 3 || ri.TailChunks != 1 {
				t.Fatalf("%s: router has %d frozen and %d tail chunks, want 3 and 1", l.Name, ri.FrozenChunks, ri.TailChunks)
			}
		}
		if err := sys.Check(m); err != nil {
			t.Fatal(err)
		}
		if err := sys.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIterateCallbackMayRead: Iterate callbacks run lock-free (the
// memtable lock is only held while a bounded batch is extracted), so
// reading the snapshot from inside fn while an appender hammers the
// live memtable must make progress. With the lock held across fn this
// deadlocks: the nested RLock queues behind the waiting writer.
func TestIterateCallbackMayRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	const n = 600
	for i := 0; i < n; i++ {
		mustAppend(t, s, fmt.Sprintf("v/%05d", i))
	}
	sn := s.Snapshot()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Append(fmt.Sprintf("w/%05d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	count := 0
	sn.Iterate(0, sn.Len(), func(pos int, v string) bool {
		if got := sn.Access(pos); got != v { // nested snapshot read
			t.Errorf("Access(%d) = %q inside Iterate of %q", pos, got, v)
			return false
		}
		count++
		return true
	})
	close(stop)
	wg.Wait()
	if count != n {
		t.Fatalf("iterated %d of %d", count, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlushNotBlockedByMerge is the two-phase-compaction contract test:
// while a merge of two large generations runs, Flush must keep
// completing (the merge holds adminMu only for its manifest commit).
// With the old single-phase compactor this test deadlocks Flush behind
// the whole merge and the assertion fails.
func TestFlushNotBlockedByMerge(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	// Two sizeable generations to merge: enough work that the prepare
	// phase dominates the commit by orders of magnitude.
	big := workload.URLLog(60000, 31, workload.DefaultURLConfig())
	half := len(big) / 2
	mustAppend(t, s, big[:half]...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, big[half:]...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	compactDone := make(chan struct{})
	go func() {
		defer close(compactDone)
		if err := s.Compact(); err != nil {
			t.Error(err)
		}
	}()

	// Appends + flushes racing the merge: every flush must complete
	// while the merge is still running (until it finishes).
	// Bounded: compaction chases MaxGenerations over the gens these
	// flushes create, so flushing until compactDone would be a livelock.
	flushesDuringMerge := 0
	var extra []string
loop:
	for i := 0; i < 40; i++ {
		select {
		case <-compactDone:
			break loop
		default:
		}
		v := fmt.Sprintf("tail/%06d", i)
		mustAppend(t, s, v)
		extra = append(extra, v)
		start := time.Now()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("Flush took %v during a merge — write path is blocked", time.Since(start))
		}
		flushesDuringMerge++
	}
	<-compactDone
	if flushesDuringMerge == 0 {
		t.Skip("merge finished before any flush could race it")
	}
	t.Logf("%d flushes completed while the merge ran", flushesDuringMerge)

	// Everything is intact and ordered: big prefix, then the tail.
	want := append(append([]string(nil), big...), extra...)
	CheckModel(t, s.Snapshot(), want, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// And it all survives a reopen.
	s2 := mustOpen(t, dir, nil)
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
}

// TestAppendFlushDuringForcedCompaction hammers the store with
// continuous appends and flushes from one goroutine while another
// forces repeated compactions; afterwards content and order must be
// exact. Run with -race (CI does).
func TestAppendFlushDuringForcedCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	const n = 3000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			if err := compactEach(s, 1+i%3); err != nil && err != errClosed {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		mustAppend(t, s, fmt.Sprintf("v/%05d", i))
		if i%250 == 249 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	sn := s.Snapshot()
	if sn.Len() != n {
		t.Fatalf("Len = %d, want %d", sn.Len(), n)
	}
	for i := 0; i < n; i += 37 {
		if g, want := sn.Access(i), fmt.Sprintf("v/%05d", i); g != want {
			t.Fatalf("Access(%d) = %q, want %q", i, g, want)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

var iteratePageSink int

// BenchmarkSnapshotIteratePage times a served positional page — 256
// values from a seeded random offset, through Iterate — flat and over 2
// shards, each 4 × 16 384 flushed values and a 3 000-value memtable that
// lies wholly in the unfrozen router tail: the "frozen" arm's pages are
// in the generations and frozen router chunks, the "tail" arm's in the
// memtable and the router tail.
func BenchmarkSnapshotIteratePage(b *testing.B) {
	const gen, gens, tail, page = 1 << 14, 4, 3000, 256
	seq := workload.URLLog(gens*gen+tail, 1, workload.DefaultURLConfig())
	for _, shards := range []int{0, 2} {
		opts := Options{FlushThreshold: 1 << 30, DisableAutoFlush: true}
		var s *Store
		var err error
		layout := "plain"
		if shards == 0 {
			s, err = Open(b.TempDir(), &opts)
		} else {
			layout = fmt.Sprintf("sharded%d", shards)
			s, err = OpenSharded(b.TempDir(), &ShardedOptions{Shards: shards, Store: opts})
		}
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(seq); lo += gen {
			hi := min(lo+gen, len(seq))
			if err := s.AppendBatch(seq[lo:hi]); err != nil {
				b.Fatal(err)
			}
			if hi-lo == gen {
				if err := s.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		sn := s.Snapshot()
		for _, arm := range []struct {
			name   string
			lo, hi int // the pages' first positions
		}{{"frozen", 0, gens*gen - page}, {"tail", gens * gen, len(seq) - page}} {
			r := rand.New(rand.NewSource(5))
			offs := make([]int, 1024)
			for i := range offs {
				offs[i] = arm.lo + r.Intn(arm.hi-arm.lo+1)
			}
			b.Run(layout+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l := offs[i%len(offs)]
					sn.Iterate(l, l+page, func(pos int, v string) bool {
						iteratePageSink += pos + len(v)
						return true
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*page), "ns/elem")
			})
		}
		s.Close()
	}
}
