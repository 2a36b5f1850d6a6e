package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
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

// TestSnapshotFingerprint pins the cache-keying contract: stable while
// the state is unchanged, fresh after every append, batch, flush and
// compaction, on both store kinds.
func TestSnapshotFingerprint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	seen := map[uint64]string{}
	record := func(stage string) {
		t.Helper()
		fp := s.Snapshot().Fingerprint()
		if fp2 := s.Snapshot().Fingerprint(); fp2 != fp {
			t.Fatalf("%s: fingerprint unstable on unchanged state: %#x vs %#x", stage, fp, fp2)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s: fingerprint %#x collides with stage %q", stage, fp, prev)
		}
		seen[fp] = stage
	}
	record("empty")
	if err := s.Append("a"); err != nil {
		t.Fatal(err)
	}
	record("append")
	if err := s.AppendBatch([]string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	record("batch")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	record("flush")
	if err := s.AppendBatch([]string{"d", "e"}); err != nil {
		t.Fatal(err)
	}
	record("batch2")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	record("flush2")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// Compaction rewrites the same content under a new generation id: a
	// changed fingerprint is allowed (and expected), equality with any
	// *earlier different content* is not — covered by the collision map.
	record("compact")

	sdir := t.TempDir()
	ss, err := OpenSharded(sdir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	fp0 := ss.Snapshot().Fingerprint()
	if err := ss.AppendBatch([]string{"val/0001", "val/0002"}); err != nil {
		t.Fatal(err)
	}
	fp1 := ss.Snapshot().Fingerprint()
	if fp0 == fp1 {
		t.Fatalf("sharded fingerprint unchanged by batch: %#x", fp0)
	}
	if fp2 := ss.Snapshot().Fingerprint(); fp2 != fp1 {
		t.Fatalf("sharded fingerprint unstable: %#x vs %#x", fp1, fp2)
	}
}

// TestAccessScanMemoized scans a multi-generation snapshot forward,
// backward and randomly — the locate memo must never change answers.
func TestAccessScanMemoized(t *testing.T) {
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
	if a.Snapshot().Fingerprint() == b.Snapshot().Fingerprint() {
		t.Fatal("identity fingerprints agreed across stores — ContentFingerprint would be redundant")
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
