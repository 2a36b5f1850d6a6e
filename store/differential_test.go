package store_test

import (
	"testing"

	wavelettrie "repro"
	"repro/internal/model"
	"repro/internal/workload"
	"repro/store"
)

// The ISSUE acceptance contract: a store — through flushes, compactions
// and a reopen — serves the same answers as a freshly built AppendOnly
// index over the same sequence, and its export as a loadable Frozen;
// all of them held to the model.
func TestDifferentialVsAppendOnly(t *testing.T) {
	dir := t.TempDir()
	seq := workload.URLLog(500, 11, workload.DefaultURLConfig())

	s, err := store.Open(dir, &store.Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave appends with flushes and a compaction so the sequence
	// ends up spread over several generations plus a memtable tail.
	for i, v := range seq {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 99, 199, 299, 399:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		case 349:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: generations load, the memtable tail replays from the WAL.
	s, err = store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	m := model.FromSlice(seq, nil)
	m.Check(t, store.ModelReader(s.Snapshot()))
	m.Check(t, model.Seq(s))
	m.Check(t, model.Seq(wavelettrie.NewAppendOnlyFrom(seq)))
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := wavelettrie.LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Check(t, model.Seq(frozen))
}

// TestAutoFlushAndCompaction drives the background flusher/compactor
// through the public API and checks the generation count stays bounded
// while answers stay exact.
func TestAutoFlushAndCompaction(t *testing.T) {
	dir := t.TempDir()
	seq := workload.URLLog(2000, 7, workload.DefaultURLConfig())
	s, err := store.Open(dir, &store.Options{FlushThreshold: 128, MaxGenerations: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range seq {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	// Force the tail out and the generation count down deterministically.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Generations()); got != 1 {
		t.Fatalf("generations = %d, want 1", got)
	}
	store.CheckModel(t, s.Snapshot(), seq, nil)
}

// TestSnapshotIsolation: a snapshot taken mid-stream keeps answering for
// its prefix while appends, a flush and a compaction rewrite the store
// underneath it — on a flat store and on three shards.
func TestSnapshotIsolation(t *testing.T) {
	seq := workload.URLLog(900, 23, workload.DefaultURLConfig())
	for _, shards := range []int{0, 3} {
		s, err := store.OpenSharded(t.TempDir(), &store.ShardedOptions{Shards: shards,
			Store: store.Options{FlushThreshold: 1 << 20, DisableAutoFlush: true}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.AppendBatch(seq[:150]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch(seq[150:300]); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if err := s.AppendBatch(seq[300:]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		store.CheckModel(t, snap, seq[:300], nil)
		store.CheckModel(t, s.Snapshot(), seq, nil)
	}
}
