package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// batchRounds returns rounds batches of 1 to size values drawn from a
// space of space values — so batches carry duplicates, both of values
// already stored and of values new within the batch — with after[i]
// following round i.
func batchRounds(seed int64, rounds, size, space int, after map[int]model.Op) []model.Cmd {
	r := rand.New(rand.NewSource(seed))
	var cmds []model.Cmd
	for round := 0; round < rounds; round++ {
		batch := make([]string, 1+r.Intn(size))
		for i := range batch {
			batch[i] = fmt.Sprintf("val/%04d", r.Intn(space))
		}
		cmds = append(cmds, model.Cmd{Op: model.OpBatch, Vals: batch})
		if op, ok := after[round]; ok {
			cmds = append(cmds, model.Cmd{Op: op})
		}
	}
	return cmds
}

// TestAppendBatchPlain runs group-commit batches on a plain store through
// the model's runner, across two flushes and a reopen with nothing
// flushed since: the WAL holds every batched record.
func TestAppendBatchPlain(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	if err := s.AppendBatch(nil); err != nil || s.Len() != 0 {
		t.Fatalf("empty batch: Len %d, %v", s.Len(), err)
	}
	cmds := batchRounds(7, 30, 40, 200, map[int]model.Op{10: model.OpFlush, 20: model.OpFlush, 29: model.OpReopen})
	model.Run(t, nil, ModelLayout{Name: "plain"}.Open, cmds)
}

// TestAppendBatchSharded runs batches on two shards through the model's
// runner: each lands atomically and in argument order in the global
// sequence, across a flush, a compaction and a reopen.
func TestAppendBatchSharded(t *testing.T) {
	cmds := batchRounds(11, 25, 30, 300, map[int]model.Op{8: model.OpFlush, 16: model.OpCompact, 24: model.OpReopen})
	model.Run(t, nil, ModelLayout{Name: "sharded", Shards: 2}.Open, cmds)
}

// TestAppendBatchMixedWithAppends interleaves single appends and batches
// on two shards, through the model's runner.
func TestAppendBatchMixedWithAppends(t *testing.T) {
	var cmds []model.Cmd
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			cmds = append(cmds, model.Cmd{Op: model.OpBatch, Vals: []string{fmt.Sprintf("val/%04d", i), fmt.Sprintf("val/%04d", i+1000)}})
		} else {
			cmds = append(cmds, model.Cmd{Op: model.OpAppend, Vals: []string{fmt.Sprintf("val/%04d", i)}})
		}
	}
	model.Run(t, nil, ModelLayout{Name: "sharded", Shards: 2}.Open, cmds)
}

// TestAppendIsBatchOfOne pins what lets a single append be a batch of one:
// n values appended one AppendRow at a time and the same n as one-value
// AppendBatchRows calls leave byte-identical WAL files — on a plain store
// and on every shard of a 2-shard one, sequence headers included — and the
// two directories reopen to the same content.
func TestAppendIsBatchOfOne(t *testing.T) {
	rowFor := func(i int) Row {
		switch i % 3 {
		case 0:
			return nil
		case 1:
			return Row{U64(uint64(i)), Null()}
		}
		return Row{Null(), Blob([]byte(fmt.Sprintf("m%d", i)))}
	}
	for _, arm := range []struct {
		name   string
		shards int
		wals   []string
	}{
		{"plain", 0, []string{walFileName(1)}},
		{"sharded", 2, []string{filepath.Join(shardDirName(0), walFileName(1)), filepath.Join(shardDirName(1), walFileName(1))}},
	} {
		open := func(dir string) *Store {
			s, err := OpenSharded(dir, &ShardedOptions{Shards: arm.shards, Store: *colTestOpts()})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		t.Run(arm.name, func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()}
			for form, dir := range dirs {
				st := open(dir)
				for i := 0; i < 200; i++ {
					v, row := fmt.Sprintf("val/%03d", i%37), rowFor(i)
					var err error
					if form == 0 {
						err = st.AppendRow(v, row)
					} else {
						err = st.AppendBatchRows([]string{v}, []Row{row})
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range arm.wals {
				one, err := os.ReadFile(filepath.Join(dirs[0], name))
				if err != nil {
					t.Fatal(err)
				}
				batch, err := os.ReadFile(filepath.Join(dirs[1], name))
				if err != nil {
					t.Fatal(err)
				}
				if len(one) <= walHeaderLen || !bytes.Equal(one, batch) {
					t.Fatalf("%s: %d bytes from AppendRow, %d from one-value batches, want identical and non-empty", name, len(one), len(batch))
				}
			}
			var fps [2]uint64
			for form, dir := range dirs {
				st := open(dir)
				fps[form] = st.Snapshot().ContentFingerprint()
				st.Close()
			}
			if fps[0] != fps[1] {
				t.Fatalf("reopened content differs: %016x from AppendRow, %016x from one-value batches", fps[0], fps[1])
			}
		})
	}
}

// TestAppendBatchDurability crashes (directory copy) right after a
// batch on a Sync store: every record of the acknowledged batch must
// survive — the batch's single fsync covers all of it.
func TestAppendBatchDurability(t *testing.T) {
	batch := make([]string, 64)
	for i := range batch {
		batch[i] = fmt.Sprintf("batched/%02d", i)
	}
	model.Run(t, nil, ModelLayout{Name: "plain"}.Open, []model.Cmd{{Op: model.OpBatch, Vals: batch}, {Op: model.OpCrash}})
}

// TestSnapshotFingerprint is the pinned view's contract test (it keeps the
// name it had when a fingerprint identified a state; the pointer does now):
// while the state is unchanged Snapshot() returns the identical view, and
// after every append, batch, flush, compaction and reopen it returns a
// different one that holds the new content — while a view taken earlier
// keeps answering as it did. Plain and sharded.
func TestSnapshotFingerprint(t *testing.T) {
	for name, shards := range map[string]int{"plain": 0, "sharded": 2} {
		open := func(dir string) *Store {
			s, err := OpenSharded(dir, &ShardedOptions{Shards: shards, Store: *testOpts()})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := open(dir)
			defer func() { s.Close() }()
			var want []string
			type held struct {
				stage string
				v     *Snapshot
				n     int
			}
			var views []held
			// step runs a state change and holds the store to the contract.
			step := func(stage string, change func() error) {
				t.Helper()
				before := s.Snapshot()
				if again := s.Snapshot(); again != before {
					t.Fatalf("before %s: two Snapshot() calls on an unchanged state returned different views", stage)
				}
				if err := change(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				after := s.Snapshot()
				if after == before {
					t.Fatalf("%s: Snapshot() still returns the view from before it", stage)
				}
				if again := s.Snapshot(); again != after {
					t.Fatalf("after %s: two Snapshot() calls on an unchanged state returned different views", stage)
				}
				views = append(views, held{stage, after, len(want)})
				for _, h := range views {
					if got := h.v.Slice(0, h.v.Len()); !slices.Equal(got, want[:h.n]) {
						t.Fatalf("after %s: the view taken after %s reads %q, want %q", stage, h.stage, got, want[:h.n])
					}
				}
			}
			add := func(vs ...string) func() error {
				return func() error {
					want = append(want, vs...)
					if len(vs) == 1 {
						return s.Append(vs[0])
					}
					return s.AppendBatch(vs)
				}
			}
			// Batches wide enough that every shard takes part in both
			// flushes, so the compaction has something to merge everywhere.
			batch := func(lo, hi int) []string {
				var vs []string
				for i := lo; i < hi; i++ {
					vs = append(vs, fmt.Sprintf("val/%04d", i%20))
				}
				return vs
			}
			step("append", add("val/0001"))
			step("batch", add(batch(0, 16)...))
			step("flush", s.Flush)
			step("batch2", add(batch(10, 26)...))
			step("flush2", s.Flush)
			step("compact", s.Compact)
			step("reopen", func() error {
				if err := s.Close(); err != nil {
					return err
				}
				s = open(dir)
				return nil
			})
			step("append after reopen", add("val/0100"))
		})
	}
}

// TestAccessScanAcrossSegments holds a snapshot of three generations
// and a memtable to the model: locate must land every position in its
// segment.
func TestAccessScanAcrossSegments(t *testing.T) {
	var want []string
	for i := 0; i < 200; i++ {
		want = append(want, fmt.Sprintf("g%d/%02d", i/50, i%50))
	}
	model.Run(t, nil, ModelLayout{Name: "flat"}.Open, model.Flushed(want, nil, 50, 100, 150))
}

// TestContentFingerprint pins the cross-store contract: stores holding
// the same sequence agree with the model's fingerprint regardless of
// layout (flushed vs memtable, plain vs sharded), and any content
// difference shows, concatenation boundaries included.
func TestContentFingerprint(t *testing.T) {
	vals := []string{"alpha", "beta", "alpha", "gamma", "", "delta"}
	model.Run(t, nil, ModelLayout{Name: "flat"}.Open, model.Flushed(vals, nil, len(vals)))
	model.Run(t, nil, ModelLayout{Name: "shards=2", Shards: 2}.Open, model.Flushed(vals, nil))
	fp := func(vs ...string) uint64 {
		s := mustOpen(t, t.TempDir(), testOpts())
		defer s.Close()
		if err := s.AppendBatch(vs); err != nil {
			t.Fatal(err)
		}
		return s.Snapshot().ContentFingerprint()
	}
	if fp(vals...) == fp(append(vals, "extra")...) {
		t.Fatal("different contents, same fingerprint")
	}
	if fp("ab", "c") == fp("a", "bc") {
		t.Fatal("concatenation boundary collision")
	}
}

// BenchmarkAppend times single appends — each a group commit of one — on a
// plain store, a 1-shard and a 2-shard one: an op is 10 000 URL-log values
// appended one Append at a time to a fresh store, reported per value with
// the allocations they make.
func BenchmarkAppend(b *testing.B) {
	type appender interface {
		Append(v string) error
		Close() error
	}
	vals := workload.URLLog(10000, 1, workload.DefaultURLConfig())
	for _, arm := range []struct {
		name string
		open func(dir string) (appender, error)
	}{
		{"plain", func(dir string) (appender, error) { return Open(dir, testOpts()) }},
		{"sharded", func(dir string) (appender, error) { return OpenSharded(dir, shardedCrashOpts()) }},
		{"sharded1", func(dir string) (appender, error) {
			return OpenSharded(dir, &ShardedOptions{Shards: 1, Store: shardedCrashOpts().Store})
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			var mallocs uint64
			var before, after runtime.MemStats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, err := arm.open(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&before)
				b.StartTimer()
				for _, v := range vals {
					if err := st.Append(v); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			perOp := float64(b.N * len(vals))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perOp, "ns/value")
			b.ReportMetric(float64(mallocs)/perOp, "allocs/value")
		})
	}
}
