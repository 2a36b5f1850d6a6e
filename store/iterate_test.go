package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestSnapshotIterateMatchesAccess diffs the streaming Iterate/Slice
// against per-position Access on a snapshot spread over several frozen
// generations plus a live memtable tail — including subranges crossing
// segment boundaries and early stops.
func TestSnapshotIterateMatchesAccess(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	seq := workload.URLLog(400, 17, workload.DefaultURLConfig())
	for i, v := range seq {
		mustAppend(t, s, v)
		if i == 99 || i == 199 || i == 299 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	sn := s.Snapshot()
	if segs := len(sn.shards[0].segs); segs != 4 { // 3 gens + live memtable view
		t.Fatalf("segments = %d, want 4", segs)
	}

	count := 0
	sn.Iterate(0, sn.Len(), func(pos int, v string) bool {
		if pos != count {
			t.Fatalf("Iterate positions out of order: %d, want %d", pos, count)
		}
		if want := sn.Access(pos); v != want {
			t.Fatalf("Iterate(%d) = %q, Access says %q", pos, v, want)
		}
		count++
		return true
	})
	if count != len(seq) {
		t.Fatalf("iterated %d of %d", count, len(seq))
	}

	// Subranges crossing segment boundaries.
	for _, lr := range [][2]int{{0, 0}, {50, 150}, {95, 105}, {199, 301}, {350, 400}, {0, 400}} {
		got := sn.Slice(lr[0], lr[1])
		if len(got) != lr[1]-lr[0] {
			t.Fatalf("Slice(%d,%d) returned %d elements", lr[0], lr[1], len(got))
		}
		for i, v := range got {
			if want := seq[lr[0]+i]; v != want {
				t.Fatalf("Slice(%d,%d)[%d] = %q, want %q", lr[0], lr[1], i, v, want)
			}
		}
	}

	// Early stop mid-segment and across a boundary.
	for _, stop := range []int{1, 120} {
		seen := 0
		sn.Iterate(0, sn.Len(), func(int, string) bool {
			seen++
			return seen < stop
		})
		if seen != stop {
			t.Fatalf("early stop at %d saw %d", stop, seen)
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
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	sn := s.Snapshot()
	for i := 0; i < len(want); i += 997 {
		if g := sn.Access(i); g != want[i] {
			t.Fatalf("Access(%d) = %q, want %q", i, g, want[i])
		}
	}
	for i, v := range extra {
		pos, ok := sn.Select(v, 0)
		if !ok || pos != len(big)+i {
			t.Fatalf("Select(%q) = %d,%v want %d", v, pos, ok, len(big)+i)
		}
	}
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
