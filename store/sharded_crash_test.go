package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These crash simulations are white-box: they drive a single shard's
// flush directly (so one shard persists while another does not) and
// copy the directory tree mid-life, exactly the on-disk state a kill
// would leave.

func shardedCrashOpts() *ShardedOptions {
	return &ShardedOptions{Shards: 2, Store: Options{FlushThreshold: 1 << 20, DisableAutoFlush: true}}
}

// copyTree snapshots a live store directory into dst — the "crash": a
// point-in-time copy of whatever has reached the filesystem.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			copyTree(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkShardedSeq verifies the whole visible sequence, per-value counts
// and the distinct count against want.
func checkShardedSeq(t *testing.T, ss *Store, want []string) {
	t.Helper()
	if ss.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", ss.Len(), len(want))
	}
	snap := ss.Snapshot()
	for i, w := range want {
		if g := snap.Access(i); g != w {
			t.Fatalf("Access(%d) = %q, want %q", i, g, w)
		}
	}
	counts := map[string]int{}
	for _, w := range want {
		counts[w]++
	}
	for v, c := range counts {
		if g := snap.Count(v); g != c {
			t.Fatalf("Count(%q) = %d, want %d", v, g, c)
		}
	}
	if g := snap.AlphabetSize(); g != len(counts) {
		t.Fatalf("AlphabetSize = %d, want %d", g, len(counts))
	}
}

// crashSeq builds an append sequence whose values provably land on both
// shards of a 2-shard FNV-1a store.
func crashSeq(n int) []string {
	seq := make([]string, n)
	hit := [2]int{}
	for i := range seq {
		seq[i] = fmt.Sprintf("val/%04d", i)
		hit[pickShard(seq[i], 2)]++
	}
	if hit[0] == 0 || hit[1] == 0 {
		panic("crashSeq: degenerate routing")
	}
	return seq
}

// TestShardedCrashPartialFlush: a flush lands on one shard but not the
// other, then the process dies. Recovery must stitch the flushed
// generation of shard 0 and the WAL tail of shard 1 back into the exact
// interleaved append order.
func TestShardedCrashPartialFlush(t *testing.T) {
	base := t.TempDir()
	live, crash := filepath.Join(base, "live"), filepath.Join(base, "crash")
	seq := crashSeq(200)

	ss, err := OpenSharded(live, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	// Only shard 0 flushes: its records move to a frozen generation and
	// its WAL is deleted; shard 1 keeps everything in its WAL. The seal
	// barrier has persisted the ROUTER log through the watermark.
	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(ss.shards[0].generations()); got != 1 {
		t.Fatalf("shard 0 generations = %d, want 1", got)
	}
	if got := ss.shards[1].memLen(); got == 0 {
		t.Fatal("shard 1 unexpectedly flushed")
	}
	copyTree(t, live, crash) // CRASH
	ss.Close()

	re, err := OpenSharded(crash, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkShardedSeq(t, re, seq)
	// Appending resumes across both shards.
	if err := re.Append("post/crash"); err != nil {
		t.Fatal(err)
	}
	if g := re.Access(re.Len() - 1); g != "post/crash" {
		t.Fatalf("resumed append: got %q", g)
	}
}

// TestShardedCrashTornShardWAL: after the partial flush, shard 1's WAL
// additionally loses a suffix (torn tail). Recovery keeps the surviving
// per-shard prefixes in the original interleaved order — shard 0's
// flushed records all survive, shard 1 contributes only the records
// still in its truncated WAL, and the skipped ROUTER claims for the
// lost records close up without shifting anyone's values.
func TestShardedCrashTornShardWAL(t *testing.T) {
	base := t.TempDir()
	live, crash := filepath.Join(base, "live"), filepath.Join(base, "crash")
	seq := crashSeq(200)

	ss, err := OpenSharded(live, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	copyTree(t, live, crash) // CRASH
	ss.Close()

	// Tear shard 1's WAL: chop enough bytes to lose several records.
	walPath := newestWAL(t, filepath.Join(crash, shardDirName(1)))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-200], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, err := parseWAL(data[:len(data)-200])
	if err != nil {
		t.Fatal(err)
	}
	survive1 := len(recs)

	// Expected: the interleaved order restricted to shard 0's records
	// plus shard 1's surviving prefix.
	var want []string
	k1 := 0
	for _, v := range seq {
		if pickShard(v, 2) == 0 {
			want = append(want, v)
		} else if k1 < survive1 {
			want = append(want, v)
			k1++
		}
	}
	if k1 != survive1 || survive1 == 0 {
		t.Fatalf("bad tear: %d of %d shard-1 records survive", survive1, k1)
	}

	re, err := OpenSharded(crash, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShardedSeq(t, re, want)

	// Life goes on after a lossy recovery: the retained sequence
	// numbers were renumbered to the compacted positions, so Flush (the
	// seal barrier waits on the watermark) completes, appends resume,
	// and yet another reopen still agrees — the regression that would
	// hang or wedge if pre-crash numbers leaked past reconciliation.
	if err := re.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := re.Append("post/loss"); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re, err = OpenSharded(crash, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkShardedSeq(t, re, append(append([]string(nil), want...), "post/loss"))
}

// TestShardedCrashRouterStates: the ROUTER log is the only durable
// source of the interleave for flushed records, and merely a cache for
// WAL-resident ones. Deleting it with everything still in the WALs
// recovers perfectly from the sequence headers; deleting it after a
// flush must fail loudly; tearing its tail is survivable either way.
func TestShardedCrashRouterStates(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	seq := crashSeq(120)

	ss, err := OpenSharded(live, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq[:80] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	unflushed := filepath.Join(base, "unflushed")
	copyTree(t, live, unflushed)

	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range seq[80:] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	flushed := filepath.Join(base, "flushed")
	copyTree(t, live, flushed)
	ss.Close()

	// No flush anywhere: the WAL sequence headers alone rebuild the order.
	if err := os.Remove(filepath.Join(unflushed, routerName)); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(unflushed, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShardedSeq(t, re, seq[:80])
	re.Close()

	// A torn ROUTER tail: a crash can tear only a record the barrier has
	// not yet fsynced — one covering WAL-resident records. Forge exactly
	// that state (an extra record for the unflushed suffix, torn) and
	// recover: the claimed prefix survives, the torn suffix is
	// re-derived from the WAL sequence headers, nothing is lost.
	tornDir := filepath.Join(base, "torn")
	copyTree(t, flushed, tornDir)
	rp := filepath.Join(tornDir, routerName)
	var extra []byte
	for _, v := range seq[80:] {
		extra = append(extra, byte(pickShard(v, 2)))
	}
	rec := appendLogRecord(nil, extra)
	f, err := os.OpenFile(rp, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	re, err = OpenSharded(tornDir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShardedSeq(t, re, seq)
	re.Close()

	// A tear INSIDE the fsynced region cannot come from a crash (the
	// barrier fsyncs before any flush proceeds); it means the file was
	// damaged, and recovery must refuse loudly rather than guess.
	impossible := filepath.Join(base, "impossible")
	copyTree(t, flushed, impossible)
	ip := filepath.Join(impossible, routerName)
	data, err := os.ReadFile(ip)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ip, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(impossible, shardedCrashOpts()); err == nil {
		t.Fatal("damaged fsynced ROUTER region not rejected")
	} else if !strings.Contains(err.Error(), "ROUTER") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Flushed records with no ROUTER at all: the interleave is gone;
	// recovery must refuse rather than guess.
	if err := os.Remove(filepath.Join(flushed, routerName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded(flushed, shardedCrashOpts()); err == nil {
		t.Fatal("missing ROUTER over flushed records not rejected")
	} else if !strings.Contains(err.Error(), "ROUTER") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestShardedCompactPreservesDeferredWALs: a sharded open defers the
// interrupted-flush checkpoint, leaving a superseded WAL alive until
// the next flush. A compaction commit in that window must not advance
// the manifest's walID past it — the next open would delete the WAL
// and silently lose its acknowledged records.
func TestShardedCompactPreservesDeferredWALs(t *testing.T) {
	dir := t.TempDir()
	opts := shardedCrashOpts()
	seq := crashSeq(120)

	ss, err := OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two generations on shard 0 (so Compact has a run to merge), plus
	// a WAL-resident tail on both shards.
	for _, v := range seq[:40] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range seq[40:80] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	tail0 := 0
	for _, v := range seq[80:] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
		if pickShard(v, 2) == 0 {
			tail0++
		}
	}
	if tail0 == 0 {
		t.Fatal("sanity: no WAL-resident shard-0 records at risk")
	}
	n := ss.Len()
	ss.Close()

	// Forge the crash-interrupted-flush layout on shard 0: the flush
	// died after rotating to a fresh WAL that already took two more
	// appends (global sequence numbers continue past the ROUTER log).
	shard0 := filepath.Join(dir, shardDirName(0))
	mdata, err := os.ReadFile(filepath.Join(shard0, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(mdata)
	if err != nil {
		t.Fatal(err)
	}
	w, err := createWAL(filepath.Join(shard0, walFileName(m.nextID)), false)
	if err != nil {
		t.Fatal(err)
	}
	var post []string
	for i := 0; len(post) < 2; i++ {
		if v := fmt.Sprintf("post/%d", i); pickShard(v, 2) == 0 {
			post = append(post, v)
		}
	}
	for i, v := range post {
		logValue(t, w, v, uint64(n+i), true)
	}
	w.close()
	want := append(append([]string(nil), seq...), post...)

	// Reopen (shard 0 now replays two WALs, checkpoint deferred) and
	// compact before any flush — the window the commit must respect.
	ss, err = OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkShardedSeq(t, ss, want)
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(ss.shards[0].generations()); got != 1 {
		t.Fatalf("shard 0 generations after Compact = %d, want 1", got)
	}
	checkShardedSeq(t, ss, want)
	ss.Close()

	// The deferred WAL must have survived the compaction commit.
	ss, err = OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	checkShardedSeq(t, ss, want)
}

// TestShardedCloseAfterFailureReleasesLocks: Close must close every
// shard (goroutines, WAL handles, directory flocks) even after a
// sticky write-path failure, so the directory can be reopened.
func TestShardedCloseAfterFailureReleasesLocks(t *testing.T) {
	dir := t.TempDir()
	seq := crashSeq(20)
	ss, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	ss.fail(errors.New("injected write failure"))
	if err := ss.Append("x"); err == nil {
		t.Fatal("append after failure not rejected")
	}
	ss.Close()

	// Every lock is released: the same process reopens the directory
	// and recovers the pre-failure records.
	re, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkShardedSeq(t, re, seq)
}

// TestShardedRouterLogFailurePoisons: once a ROUTER append/commit
// fails, the file may hold a partially acknowledged suffix, so any
// retry (including the one in Close) would duplicate claims and
// scramble the order. The log must be poisoned instead — flushes fail,
// and recovery re-derives the tail from the WAL sequence headers.
func TestShardedRouterLogFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	seq := crashSeq(60)
	ss, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	// Sabotage the ROUTER log handle: the next barrier append fails.
	ss.log.f.Close()
	if err := ss.Flush(); err == nil {
		t.Fatal("flush with a broken ROUTER log not failed")
	}
	ss.Close() // must not retry the append (it would duplicate claims)

	re, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkShardedSeq(t, re, seq)
}

// newestWAL returns the path of the highest-numbered WAL in dir.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && (newest == "" || e.Name() > newest) {
			newest = e.Name()
		}
	}
	if newest == "" {
		t.Fatalf("no WAL in %s", dir)
	}
	return filepath.Join(dir, newest)
}

// TestShardedShardDirGuard: a shard subdirectory must not be opened as
// a standalone store — its WAL carries sequence headers the plain
// replay would checkpoint away.
func TestShardedShardDirGuard(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range crashSeq(40) {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()
	// Unflushed: both the parent-manifest guard and the WAL
	// sequence-header check would trip.
	for i := 0; i < 2; i++ {
		if _, err := Open(filepath.Join(dir, shardDirName(i)), testOpts()); err == nil {
			t.Fatalf("plain Open of unflushed shard %d not rejected", i)
		}
	}

	// Flushed: no header-carrying WAL records remain, so the guard must
	// come from the parent's SHARDS manifest instead.
	ss, err = OpenSharded(dir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Flush(); err != nil {
		t.Fatal(err)
	}
	ss.Close()
	for i := 0; i < 2; i++ {
		if _, err := Open(filepath.Join(dir, shardDirName(i)), testOpts()); err == nil {
			t.Fatalf("plain Open of flushed shard %d not rejected", i)
		}
	}
}
