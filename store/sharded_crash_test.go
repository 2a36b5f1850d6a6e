package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
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
	if err := model.CopyDir(src, dst); err != nil {
		t.Fatal(err)
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
	CheckModel(t, re.Snapshot(), seq, nil)
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
	CheckModel(t, re.Snapshot(), want, nil)

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
	CheckModel(t, re.Snapshot(), append(append([]string(nil), want...), "post/loss"), nil)
}

// TestShardedCrashRouterStates: the ROUTER log is the only durable
// source of the interleave for flushed records, and merely a cache for
// WAL-resident ones. Deleting it with everything still in the WALs
// recovers perfectly from the sequence headers; deleting it after a
// flush must fail loudly; a torn or corrupt record past the fsynced
// prefix is dropped, one inside it fails loudly.
func TestShardedCrashRouterStates(t *testing.T) {
	base := t.TempDir()
	live := filepath.Join(base, "live")
	seq := crashSeq(120)
	// The fsynced record covers seq[:cut] and the unsynced tail the rest:
	// 81 and 39 one-bit ids, so both records end in padding bits.
	const cut = 81

	ss, err := OpenSharded(live, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range seq[:cut] {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	unflushed := filepath.Join(base, "unflushed")
	copyTree(t, live, unflushed)

	if err := ss.shards[0].flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range seq[cut:] {
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
	CheckModel(t, re.Snapshot(), seq[:cut], nil)
	re.Close()

	// A torn ROUTER tail: a crash can tear only a record the barrier has
	// not yet fsynced — one covering WAL-resident records. Forge exactly
	// that state (an extra record for the unflushed suffix, torn) and
	// recover: the claimed prefix survives, the torn suffix is
	// re-derived from the WAL sequence headers, nothing is lost.
	var extra, swapped []byte
	for _, v := range seq[cut:] {
		extra = append(extra, byte(pickShard(v, 2)))
		swapped = append(swapped, 1-byte(pickShard(v, 2)))
	}
	rec := appendLogRecord(nil, routerPayload(extra, 2))
	// A record with nonzero padding is one the writer never produced, so
	// it is dropped like a torn one. Its ids claim the wrong shards, so
	// trusting it would scramble the recovered order.
	dirty := routerPayload(swapped, 2)
	dirty[len(dirty)-1] |= 0x80
	for name, tail := range map[string][]byte{
		"torn":          rec[:len(rec)-3],
		"dirty padding": appendLogRecord(nil, dirty),
	} {
		tailDir := filepath.Join(base, name)
		copyTree(t, flushed, tailDir)
		f, err := os.OpenFile(filepath.Join(tailDir, routerName), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()
		re, err = OpenSharded(tailDir, shardedCrashOpts())
		if err != nil {
			t.Fatalf("%s record past the fsynced prefix: %v", name, err)
		}
		CheckModel(t, re.Snapshot(), seq, nil)
		re.Close()
	}

	// A tear or a corrupt record INSIDE the fsynced region cannot come
	// from a crash (the barrier fsyncs before any flush proceeds); it
	// means the file was damaged, and recovery must refuse loudly rather
	// than guess.
	data, err := os.ReadFile(filepath.Join(flushed, routerName))
	if err != nil {
		t.Fatal(err)
	}
	synced := data[walHeaderLen+walRecHeaderLen:] // the one fsynced record's payload
	if ids, ok := decodeRouterRecord(nil, synced, 2); !ok || len(ids) != cut {
		t.Fatalf("fsynced ROUTER record holds %d ids (ok=%v), want %d", len(ids), ok, cut)
	}
	dirtySynced := append([]byte(nil), synced...)
	dirtySynced[len(dirtySynced)-1] |= 0x80
	for name, img := range map[string][]byte{
		"torn":          data[:len(data)-3],
		"dirty padding": appendLogRecord(logHeader(routerMagic, routerVersion), dirtySynced),
	} {
		impossible := filepath.Join(base, "impossible "+name)
		copyTree(t, flushed, impossible)
		if err := os.WriteFile(filepath.Join(impossible, routerName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenSharded(impossible, shardedCrashOpts()); err == nil {
			t.Fatalf("%s record inside the fsynced ROUTER region not rejected", name)
		} else if !strings.Contains(err.Error(), "ROUTER") {
			t.Fatalf("%s: unexpected error: %v", name, err)
		}
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

// TestShardedRecoveryCheckpoint: a sharded open that finds a shard's
// flush interrupted checkpoints it before returning, as a flat open does
// (TestCrashInterruptedFlush): the shard is left with one WAL, an empty
// memtable and the replayed records in a new generation. A compaction
// and a reopen after it keep every acknowledged record.
func TestShardedRecoveryCheckpoint(t *testing.T) {
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

	// Reopen: shard 0 replays two WALs and checkpoints them into a third
	// generation before the open returns.
	ss, err = OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	CheckModel(t, ss.Snapshot(), want, nil)
	if wals, _ := filepath.Glob(filepath.Join(shard0, "wal-*.log")); len(wals) != 1 {
		t.Fatalf("recovery checkpoint: shard 0 holds WALs %v, want 1", wals)
	}
	if got := ss.ShardMemLen(0); got != 0 {
		t.Fatalf("recovery checkpoint: shard 0 MemLen = %d, want 0", got)
	}
	if gens := ss.ShardGenerations(0); len(gens) != 3 || gens[2].Len != tail0+len(post) {
		t.Fatalf("recovery checkpoint: shard 0 generations %+v, want a third of %d records", gens, tail0+len(post))
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := len(ss.shards[0].generations()); got != 1 {
		t.Fatalf("shard 0 generations after Compact = %d, want 1", got)
	}
	CheckModel(t, ss.Snapshot(), want, nil)
	ss.Close()

	ss, err = OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	CheckModel(t, ss.Snapshot(), want, nil)
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
	CheckModel(t, re.Snapshot(), seq, nil)
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
	CheckModel(t, re.Snapshot(), seq, nil)
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
