package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestAppendBatchPlain checks the group-commit append against per-value
// Append on a plain store: same sequence, same distinct accounting
// (including duplicates within one batch), atomic visibility.
func TestAppendBatchPlain(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	var want []string
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		batch := make([]string, 1+r.Intn(40))
		for i := range batch {
			// Small value space so batches carry duplicates, both of
			// values already stored and of values new within the batch.
			batch[i] = fmt.Sprintf("v/%03d", r.Intn(200))
		}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
		if round == 10 || round == 20 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkSnapSeq(t, s.Snapshot(), want)
	distinct := map[string]bool{}
	for _, v := range want {
		distinct[v] = true
	}
	if g, w := s.AlphabetSize(), len(distinct); g != w {
		t.Fatalf("AlphabetSize = %d, want %d", g, w)
	}

	// The WAL holds every batched record: reopen without flushing.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkSnapSeq(t, s2.Snapshot(), want)
	if g, w := s2.AlphabetSize(), len(distinct); g != w {
		t.Fatalf("reopened AlphabetSize = %d, want %d", g, w)
	}
}

// checkSnapSeq verifies the visible sequence and a few derived answers.
func checkSnapSeq(t *testing.T, sn *Snapshot, want []string) {
	t.Helper()
	if sn.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", sn.Len(), len(want))
	}
	for i, w := range want {
		if g := sn.Access(i); g != w {
			t.Fatalf("Access(%d) = %q, want %q", i, g, w)
		}
	}
	counts := map[string]int{}
	for _, w := range want {
		counts[w]++
	}
	for v, c := range counts {
		if g := sn.Count(v); g != c {
			t.Fatalf("Count(%q) = %d, want %d", v, g, c)
		}
	}
}

// TestAppendBatchSharded checks that a sharded batch lands atomically
// and in argument order in the global sequence, across flushes and a
// reopen.
func TestAppendBatchSharded(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	r := rand.New(rand.NewSource(11))
	for round := 0; round < 25; round++ {
		batch := make([]string, 1+r.Intn(30))
		for i := range batch {
			batch[i] = fmt.Sprintf("val/%04d", r.Intn(300))
		}
		if err := ss.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		want = append(want, batch...)
		switch round {
		case 8:
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
		case 16:
			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkShardedSeq(t, ss, want)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	ss2, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	checkShardedSeq(t, ss2, want)
}

// TestAppendBatchMixedWithAppends interleaves single appends and batches
// on both store kinds and verifies the final order.
func TestAppendBatchMixedWithAppends(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	var want []string
	for i := 0; i < 50; i++ {
		if i%3 == 0 {
			batch := []string{fmt.Sprintf("val/%04d", i), fmt.Sprintf("val/%04d", i+1000)}
			if err := ss.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			want = append(want, batch...)
			continue
		}
		v := fmt.Sprintf("val/%04d", i)
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	checkShardedSeq(t, ss, want)
}

// TestAppendIsBatchOfOne pins what lets a single append be a batch of one:
// n values appended one AppendRow at a time and the same n as one-value
// AppendBatchRows calls leave byte-identical WAL files — on a plain store
// and on every shard of a 2-shard one, sequence headers included — and the
// two directories reopen to the same content.
func TestAppendIsBatchOfOne(t *testing.T) {
	type appender interface {
		AppendRow(v string, row Row) error
		AppendBatchRows(vs []string, rows []Row) error
		Close() error
	}
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
		name string
		open func(dir string) (appender, func() uint64)
		wals []string
	}{
		{"plain", func(dir string) (appender, func() uint64) {
			s := mustOpen(t, dir, colTestOpts())
			return s, func() uint64 { return s.Snapshot().ContentFingerprint() }
		}, []string{walFileName(1)}},
		{"sharded", func(dir string) (appender, func() uint64) {
			opts := shardedCrashOpts()
			opts.Store.Columns = colTestSchema()
			ss, err := OpenSharded(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			return ss, func() uint64 { return ss.Snapshot().ContentFingerprint() }
		}, []string{filepath.Join(shardDirName(0), walFileName(1)), filepath.Join(shardDirName(1), walFileName(1))}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()}
			for form, dir := range dirs {
				st, _ := arm.open(dir)
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
				st, fp := arm.open(dir)
				fps[form] = fp()
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
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "live"), &Options{Sync: true, FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batch := make([]string, 64)
	for i := range batch {
		batch[i] = fmt.Sprintf("batched/%02d", i)
	}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	copyTree(t, filepath.Join(dir, "live"), filepath.Join(dir, "crash"))
	s2, err := Open(filepath.Join(dir, "crash"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkSnapSeq(t, s2.Snapshot(), batch)
}

// TestSnapshotFingerprint is the pinned view's contract test (it keeps the
// name it had when a fingerprint identified a state; the pointer does now):
// while the state is unchanged Snapshot() returns the identical view, and
// after every append, batch, flush, compaction and reopen it returns a
// different one that holds the new content — while a view taken earlier
// keeps answering as it did. Plain and sharded.
func TestSnapshotFingerprint(t *testing.T) {
	type view interface {
		Len() int
		Slice(l, r int) []string
	}
	type viewStore interface {
		Append(v string) error
		AppendBatch(vs []string) error
		Flush() error
		Compact() error
		Close() error
	}
	for name, open := range map[string]func(dir string) (viewStore, func() view){
		"plain": func(dir string) (viewStore, func() view) {
			s, err := Open(dir, &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			return s, func() view { return s.Snapshot() }
		},
		"sharded": func(dir string) (viewStore, func() view) {
			ss, err := OpenSharded(dir, shardedCrashOpts())
			if err != nil {
				t.Fatal(err)
			}
			return ss, func() view { return ss.Snapshot() }
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, snapshot := open(dir)
			defer func() { s.Close() }()
			var want []string
			type held struct {
				stage string
				v     view
				n     int
			}
			var views []held
			// step runs a state change and holds the store to the contract.
			step := func(stage string, change func() error) {
				t.Helper()
				before := snapshot()
				if again := snapshot(); again != before {
					t.Fatalf("before %s: two Snapshot() calls on an unchanged state returned different views", stage)
				}
				if err := change(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				after := snapshot()
				if after == before {
					t.Fatalf("%s: Snapshot() still returns the view from before it", stage)
				}
				if again := snapshot(); again != after {
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
				s, snapshot = open(dir)
				return nil
			})
			step("append after reopen", add("val/0100"))
		})
	}
}

// TestAccessScanAcrossSegments scans a multi-generation snapshot forward,
// backward and randomly: locate must land every position in its segment.
func TestAccessScanAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var want []string
	for g := 0; g < 4; g++ {
		for i := 0; i < 50; i++ {
			v := fmt.Sprintf("g%d/%02d", g, i)
			if err := s.Append(v); err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
		if g < 3 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sn := s.Snapshot()
	for i := range want {
		if g := sn.Access(i); g != want[i] {
			t.Fatalf("forward Access(%d) = %q, want %q", i, g, want[i])
		}
	}
	for i := len(want) - 1; i >= 0; i-- {
		if g := sn.Access(i); g != want[i] {
			t.Fatalf("backward Access(%d) = %q, want %q", i, g, want[i])
		}
	}
	r := rand.New(rand.NewSource(3))
	for k := 0; k < 1000; k++ {
		i := r.Intn(len(want))
		if g := sn.Access(i); g != want[i] {
			t.Fatalf("random Access(%d) = %q, want %q", i, g, want[i])
		}
	}
}

// TestContentFingerprint pins the cross-store contract: stores holding
// the same sequence agree regardless of layout (flushed vs memtable,
// plain vs sharded), and any content difference shows.
func TestContentFingerprint(t *testing.T) {
	vals := []string{"alpha", "beta", "alpha", "gamma", "", "delta"}

	open := func(t *testing.T) *Store {
		st, err := Open(t.TempDir(), &Options{DisableAutoFlush: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}

	a, b := open(t), open(t)
	if err := a.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil { // a: frozen generation; b: memtable only
		t.Fatal(err)
	}
	fa, fb := a.Snapshot().ContentFingerprint(), b.Snapshot().ContentFingerprint()
	if fa != fb {
		t.Fatalf("same contents, different layout: %016x vs %016x", fa, fb)
	}

	ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 2, Store: Options{DisableAutoFlush: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	if got := ss.Snapshot().ContentFingerprint(); got != fa {
		t.Fatalf("sharded store disagreed: %016x vs %016x", got, fa)
	}

	if err := b.Append("extra"); err != nil {
		t.Fatal(err)
	}
	if got := b.Snapshot().ContentFingerprint(); got == fa {
		t.Fatal("different contents, same fingerprint")
	}

	// Boundary ambiguity: ["ab","c"] must not collide with ["a","bc"].
	c, d := open(t), open(t)
	if err := c.AppendBatch([]string{"ab", "c"}); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendBatch([]string{"a", "bc"}); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().ContentFingerprint() == d.Snapshot().ContentFingerprint() {
		t.Fatal("concatenation boundary collision")
	}
}
