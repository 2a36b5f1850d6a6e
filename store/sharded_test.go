package store_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	wavelettrie "repro"
	"repro/internal/model"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/store"
)

func mustOpenSharded(t *testing.T, dir string, opts *store.ShardedOptions) *store.Store {
	t.Helper()
	ss, err := store.OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestShardedDifferentialVsFlatOracle is the ISSUE acceptance contract:
// a sharded store — through randomized interleaved appends, per-shard
// flushes, compactions, a clean reopen and a crash-style reopen — serves
// the model's answers over the same interleaved sequence, and so does
// its export.
func TestShardedDifferentialVsFlatOracle(t *testing.T) {
	dir := t.TempDir()
	const n = 12000
	rng := rand.New(rand.NewSource(42))
	urls := workload.URLLog(n, 9, workload.DefaultURLConfig())
	// Mix in short keys and empty-ish values so shard routing sees every
	// shape, and shuffle so adjacent appends hop shards unpredictably.
	for i := 0; i < n; i += 97 {
		urls[i] = fmt.Sprintf("k%d", rng.Intn(50))
	}
	rng.Shuffle(n, func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })

	ss := mustOpenSharded(t, dir, &store.ShardedOptions{
		Shards: 4,
		Store:  store.Options{FlushThreshold: 1 << 20, DisableAutoFlush: true},
	})
	for i, v := range urls {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
		// Randomized flush/compact points exercise every mix of frozen
		// generations and memtable tails across shards.
		if rng.Intn(1500) == 0 {
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2*n/3 {
			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}

	m := model.FromSlice(urls, nil)
	m.Check(t, store.ModelReader(ss.Snapshot()))
	m.Check(t, model.Seq(ss))

	// Crash-and-reopen at full scale: a point-in-time copy of the live
	// directory tree is exactly what a kill leaves behind (no fsyncs are
	// lost in-process). The ROUTER log only covers through the last
	// flush barrier, so the tail's interleave must come back from the
	// WAL sequence headers.
	crashDir := t.TempDir()
	if err := model.CopyDir(dir, crashDir); err != nil {
		t.Fatal(err)
	}
	crashed := mustOpenSharded(t, crashDir, nil)
	m.Check(t, store.ModelReader(crashed.Snapshot()))
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: generations load, WAL tails replay, the router log
	// restores the interleave.
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	ss = mustOpenSharded(t, dir, nil) // Shards: 0 adopts the manifest count
	defer ss.Close()
	m.Check(t, store.ModelReader(ss.Snapshot()))

	// The export snapshot is a loadable Frozen with the same answers.
	data, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := wavelettrie.LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	m.Check(t, model.Seq(frozen))
}

// TestShardedConcurrentAppends: appends fan out from several writers;
// every writer's own appends stay in its program order within the
// global sequence, the counts all land, and snapshots taken mid-stream
// are internally consistent prefixes.
func TestShardedConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	const writers, per = 8, 600
	ss := mustOpenSharded(t, dir, &store.ShardedOptions{
		Shards: 4,
		Store:  store.Options{FlushThreshold: 512},
	})

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ss.Append(fmt.Sprintf("writer%02d/item%04d", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	// A concurrent reader takes snapshots while writers run; each must
	// be a self-consistent prefix (Access agrees with Select/Rank).
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := ss.Snapshot()
			n := snap.Len()
			if n == 0 {
				continue
			}
			pos := n / 2
			v := snap.Access(pos)
			r := snap.Rank(v, pos)
			if p, ok := snap.Select(v, r); !ok || p != pos {
				t.Errorf("snapshot: Select(%q,%d) = %d,%v want %d", v, r, p, ok, pos)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if t.Failed() {
		return
	}

	// Program order per writer: the k-th item of writer w precedes its
	// (k+1)-th in the global sequence, and the store — live and reopened —
	// answers as the model of that sequence.
	snap := ss.Snapshot()
	seq := snap.Slice(0, snap.Len())
	last := make([]int, writers)
	for pos, s := range seq {
		var w, i int
		if _, err := fmt.Sscanf(s, "writer%02d/item%04d", &w, &i); err != nil || i != last[w] {
			t.Fatalf("%q surfaced at position %d out of its writer's order", s, pos)
		}
		last[w]++
	}
	if len(seq) != writers*per {
		t.Fatalf("Len = %d, want %d", len(seq), writers*per)
	}
	store.CheckModel(t, snap, seq, nil)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	ss = mustOpenSharded(t, dir, nil)
	defer ss.Close()
	store.CheckModel(t, ss.Snapshot(), seq, nil)
}

// TestShardedOpenValidation: the SHARDS manifest pins shard count and
// partitioner — one naming any routing but FNV-1a is refused, the
// directory left as it was. Open and OpenSharded are one body: either
// adopts whatever layout a directory holds, a count that disagrees with
// it is refused with nothing written, and a shard subdirectory of a
// SHARDS root is never opened on its own.
func TestShardedOpenValidation(t *testing.T) {
	dir := t.TempDir()
	ss := mustOpenSharded(t, dir, &store.ShardedOptions{Shards: 2})
	if err := ss.AppendBatch([]string{"x", "y", "z", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: 3}); err == nil {
		t.Fatal("shard-count mismatch not rejected")
	}
	// SHARDS is magic, version, shard count, then the partitioner's name.
	shardsPath := filepath.Join(dir, "SHARDS")
	shards, err := os.ReadFile(shardsPath)
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewRawWriter()
	w.Raw(shards[:14])
	w.Blob([]byte("const0"))
	if err := os.WriteFile(shardsPath, w.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeFiles(t, dir)
	if _, err := store.OpenSharded(dir, nil); err == nil || !strings.Contains(err.Error(), `"const0"`) {
		t.Fatalf("OpenSharded of a store naming partitioner const0 = %v, want a refusal naming it", err)
	}
	if after := treeFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused OpenSharded changed the directory")
	}
	if err := os.WriteFile(shardsPath, shards, 0o644); err != nil {
		t.Fatal(err)
	}

	// Open of a 2-shard root adopts it: the same sequence as OpenSharded.
	ss = mustOpenSharded(t, dir, nil)
	wantLen, wantFP := ss.Len(), ss.Snapshot().ContentFingerprint()
	ss.Close()
	opened, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("Open of a sharded root: %v", err)
	}
	if n, fp := opened.Len(), opened.Snapshot().ContentFingerprint(); n != wantLen || fp != wantFP || opened.ShardCount() != 2 {
		t.Fatalf("Open of a 2-shard root: Len %d, fingerprint %x over %d shards, want %d, %x over 2",
			n, fp, opened.ShardCount(), wantLen, wantFP)
	}
	opened.Close()

	// A shard subdirectory is refused on its own, with nothing written.
	shard0 := filepath.Join(dir, "shard-000")
	before = treeFiles(t, dir)
	if _, err := store.Open(shard0, nil); err == nil {
		t.Fatal("Open of a shard subdirectory not rejected")
	}
	if _, err := store.OpenSharded(shard0, nil); err == nil {
		t.Fatal("OpenSharded of a shard subdirectory not rejected")
	}
	if after := treeFiles(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused open of shard-000 changed the directory")
	}

	// OpenSharded of a flat store adopts it; a count other than its 1 is
	// refused, with nothing written.
	flatDir := t.TempDir()
	s, err := store.Open(flatDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	adopted, err := store.OpenSharded(flatDir, nil)
	if err != nil {
		t.Fatalf("OpenSharded of a flat store: %v", err)
	}
	if adopted.Len() != 2 || adopted.ShardCount() != 1 || adopted.Access(1) != "b" {
		t.Fatalf("OpenSharded of a flat store: Len %d over %d shards", adopted.Len(), adopted.ShardCount())
	}
	adopted.Close()
	before = treeFiles(t, flatDir)
	if _, err := store.OpenSharded(flatDir, &store.ShardedOptions{Shards: 3}); err == nil {
		t.Fatal("OpenSharded of a flat store with 3 shards not rejected")
	}
	if after := treeFiles(t, flatDir); !reflect.DeepEqual(before, after) {
		t.Fatal("a refused OpenSharded changed the flat directory")
	}

	// An unrelated plain store that merely lives next to a SHARDS file
	// (not shard-named) is none of the guard's business.
	bystander := filepath.Join(dir, "mystore")
	s2, err := store.Open(bystander, nil)
	if err != nil {
		t.Fatalf("plain store beside a SHARDS file rejected: %v", err)
	}
	s2.Close()

	// The store still opens fine with matching options.
	ss = mustOpenSharded(t, dir, &store.ShardedOptions{Shards: 2})
	if got := ss.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	ss.Close()
}

// TestFreshOpenIsFlat: an empty directory opened with no shard count —
// by Open or by OpenSharded — becomes the same flat store, with no
// SHARDS, ROUTER or shard subdirectory.
func TestFreshOpenIsFlat(t *testing.T) {
	names := func(open func(dir string) (*store.Store, error)) []string {
		dir := t.TempDir()
		s, err := open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AppendBatch([]string{"a", "b", "a"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for name := range treeFiles(t, dir) {
			out = append(out, name)
		}
		sort.Strings(out)
		return out
	}
	viaOpen := names(func(dir string) (*store.Store, error) { return store.Open(dir, nil) })
	viaSharded := names(func(dir string) (*store.Store, error) { return store.OpenSharded(dir, nil) })
	if !reflect.DeepEqual(viaOpen, viaSharded) {
		t.Fatalf("fresh Open wrote %v, fresh OpenSharded %v", viaOpen, viaSharded)
	}
	for _, name := range viaOpen {
		if name == "SHARDS" || name == "ROUTER" || strings.HasPrefix(name, "shard-") {
			t.Fatalf("a fresh flat store wrote %s (files %v)", name, viaOpen)
		}
	}
}

// treeFiles reads every file under dir, by path relative to it.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
