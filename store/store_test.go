package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	wavelettrie "repro"
	"repro/internal/bitvec"
	"repro/internal/model"
	"repro/internal/wire"
	"repro/internal/workload"
)

func testOpts() *Options {
	return &Options{FlushThreshold: 1 << 20, DisableAutoFlush: true}
}

func mustOpen(t *testing.T, dir string, opts *Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAppend(t *testing.T, s *Store, vs ...string) {
	t.Helper()
	for _, v := range vs {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
}

// compactEach merges every shard of s down to at most target
// generations.
func compactEach(s *Store, target int) error {
	return s.each(func(sh *shard) error { return sh.compact(target) })
}

// TestLifecycleFlushCompactReopen runs two flushes, a compaction and a
// reopen — the generation loads from disk, the memtable replays from the
// WAL — and an append through the model's runner.
func TestLifecycleFlushCompactReopen(t *testing.T) {
	seq := workload.URLLog(300, 3, workload.DefaultURLConfig())
	model.Run(t, nil, ModelLayout{Name: "flat"}.Open, append(model.Flushed(seq, nil, 100, 200),
		model.Cmd{Op: model.OpCompact}, model.Cmd{Op: model.OpReopen}, model.Cmd{Op: model.OpAppend, Vals: []string{"tail/0"}}))
}

// TestEmptyStore holds an empty store to the model, flushed and
// reopened.
func TestEmptyStore(t *testing.T) {
	model.Run(t, nil, ModelLayout{Name: "flat"}.Open, []model.Cmd{{Op: model.OpFlush}, {Op: model.OpReopen}})
}

// TestAlphabetSizeSurvivesFlushAndReopen holds the distinct count, with
// the rest, to the model over a flush and a reopen.
func TestAlphabetSizeSurvivesFlushAndReopen(t *testing.T) {
	model.Run(t, nil, ModelLayout{Name: "flat"}.Open, append(
		model.Flushed([]string{"a", "b", "a", "c", "b", "a", "c", "d"}, nil, 6), model.Cmd{Op: model.OpReopen}))
}

// walRecords parses the store's current WAL from disk.
func walRecords(t *testing.T, dir string, id uint64) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walFileName(id)))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := parseWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	return len(recs)
}

// TestCrashTruncatedWAL simulates a kill mid-append: for every possible
// torn-tail length, the store must reopen cleanly with exactly the
// complete records.
func TestCrashTruncatedWAL(t *testing.T) {
	base := t.TempDir()
	seq := []string{"host/a", "host/b", "host/a", "api/v1", "host/c"}

	srcDir := filepath.Join(base, "src")
	s := mustOpen(t, srcDir, testOpts())
	mustAppend(t, s, seq...)
	s.Close()
	walPath := filepath.Join(srcDir, walFileName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 1; cut < len(full); cut++ {
		dir := filepath.Join(base, "crash")
		os.RemoveAll(dir)
		os.MkdirAll(dir, 0o755)
		// Recreate the directory as the crash left it: manifest + torn WAL.
		src, err := os.ReadFile(filepath.Join(srcDir, manifestName))
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(filepath.Join(dir, manifestName), src, 0o644)
		os.WriteFile(filepath.Join(dir, walFileName(1)), full[:len(full)-cut], 0o644)

		wantRecs, _, err := parseWAL(full[:len(full)-cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		s2, err := Open(dir, testOpts())
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		want := make([]string, len(wantRecs))
		for i, r := range wantRecs {
			want[i], _, _, _ = walRecord(r)
		}
		CheckModel(t, s2.Snapshot(), want, nil)
		// The torn tail must be gone: appends after recovery land on a
		// clean offset and survive another reopen.
		mustAppend(t, s2, "post/crash")
		s2.Close()
		s3 := mustOpen(t, dir, testOpts())
		CheckModel(t, s3.Snapshot(), append(want, "post/crash"), nil)
		s3.Close()
	}
}

// TestCrashCorruptWALRecord flips a payload byte mid-log: replay must
// keep the records before the corruption and drop the rest, never panic.
func TestCrashCorruptWALRecord(t *testing.T) {
	dir := t.TempDir()
	seq := []string{"aaaa", "bbbb", "cccc", "dddd"}
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, seq...)
	s.Close()

	walPath := filepath.Join(dir, walFileName(1))
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the third record's payload ("cccc").
	idx := bytes.Index(data, []byte("cccc"))
	if idx < 0 {
		t.Fatal("payload not found")
	}
	data[idx] ^= 0xFF
	os.WriteFile(walPath, data, 0o644)

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	CheckModel(t, s2.Snapshot(), seq[:2], nil)
}

// TestCrashManifestTmp: a crash mid-manifest-rewrite leaves MANIFEST.tmp
// next to an intact MANIFEST; Open must use the real one and clean up.
func TestCrashManifestTmp(t *testing.T) {
	dir := t.TempDir()
	seq := []string{"x/1", "x/2", "y/1"}
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, seq...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	tmp := filepath.Join(dir, manifestTmpName)
	os.WriteFile(tmp, []byte("garbage from a crashed rewrite"), 0o644)
	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	CheckModel(t, s2.Snapshot(), seq, nil)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("MANIFEST.tmp not cleaned up")
	}
}

// TestCrashInterruptedFlush reconstructs the on-disk layout of a crash
// between the WAL rotation and the manifest commit: the old manifest,
// the old WAL, and a newer WAL that already took appends. Recovery must
// replay both in order and checkpoint them into a generation.
func TestCrashInterruptedFlush(t *testing.T) {
	dir := t.TempDir()
	old := []string{"pre/1", "pre/2", "pre/3"}
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, old...)
	s.Close()

	// The flush that died had allocated WAL id 2 and redirected appends.
	w, err := createWAL(filepath.Join(dir, walFileName(2)), false)
	if err != nil {
		t.Fatal(err)
	}
	post := []string{"post/1", "post/2"}
	for _, v := range post {
		logValue(t, w, v, 0, false)
	}
	w.close()

	s2 := mustOpen(t, dir, testOpts())
	want := append(append([]string(nil), old...), post...)
	CheckModel(t, s2.Snapshot(), want, nil)
	if got := len(s2.Generations()); got != 1 {
		t.Fatalf("recovery checkpoint: generations = %d, want 1", got)
	}
	if got := s2.MemLen(); got != 0 {
		t.Fatalf("recovery checkpoint: MemLen = %d, want 0", got)
	}
	// The stale WALs are gone; another crash-free reopen agrees.
	if _, err := os.Stat(filepath.Join(dir, walFileName(1))); !os.IsNotExist(err) {
		t.Fatal("stale wal-1 survived recovery")
	}
	s2.Close()
	s3 := mustOpen(t, dir, testOpts())
	defer s3.Close()
	CheckModel(t, s3.Snapshot(), want, nil)
}

// TestOpenErrors: unrecoverable corruption must error, never panic and
// never silently lose committed generations.
func TestOpenErrors(t *testing.T) {
	t.Run("corrupt manifest", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, testOpts())
		mustAppend(t, s, "a")
		s.Close()
		os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest"), 0o644)
		if _, err := Open(dir, testOpts()); err == nil {
			t.Fatal("corrupt manifest accepted")
		}
	})
	t.Run("truncated gen file", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, testOpts())
		mustAppend(t, s, "a", "b", "c")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		gid := s.Generations()[0].ID
		s.Close()
		path := filepath.Join(dir, genFileName(gid))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(path, data[:len(data)/2], 0o644)
		if _, err := Open(dir, testOpts()); err == nil {
			t.Fatal("truncated generation accepted")
		}
	})
	t.Run("wrong wal magic", func(t *testing.T) {
		dir := t.TempDir()
		s := mustOpen(t, dir, testOpts())
		mustAppend(t, s, "a")
		s.Close()
		os.WriteFile(filepath.Join(dir, walFileName(1)), []byte("XXXXXXXXXXXX"), 0o644)
		if _, err := Open(dir, testOpts()); err == nil {
			t.Fatal("non-WAL file accepted as WAL")
		}
	})
}

// TestCrashCorruptFlagByte: a CRC-valid record whose payload is not
// writer-shaped must truncate there — and the truncation must persist,
// so appends after recovery are never lost to a later replay.
func TestCrashCorruptFlagByte(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, "aaaa", "bbbb")
	s.Close()

	w := &wal{}
	f, err := os.OpenFile(filepath.Join(dir, walFileName(1)), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w.f = f
	if err := w.appendFramed(appendLogRecord(nil, []byte{9, 'z', 'z'}), 1); err != nil { // flag byte 9: not ours
		t.Fatal(err)
	}
	w.close()

	s2 := mustOpen(t, dir, testOpts())
	CheckModel(t, s2.Snapshot(), []string{"aaaa", "bbbb"}, nil)
	mustAppend(t, s2, "cccc")
	s2.Close()
	s3 := mustOpen(t, dir, testOpts())
	defer s3.Close()
	CheckModel(t, s3.Snapshot(), []string{"aaaa", "bbbb", "cccc"}, nil)
}

// TestOrphanGenCleanup: generation files no manifest references (a crash
// between generation write and manifest commit, or between a compaction
// commit and the old files' deletion) are reclaimed on Open.
func TestOrphanGenCleanup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, "a", "b")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.Generations()[0].ID
	s.Close()

	orphan := filepath.Join(dir, genFileName(live+40))
	tmp := filepath.Join(dir, genFileName(live+41)+".tmp")
	os.WriteFile(orphan, []byte("dead generation"), 0o644)
	os.WriteFile(tmp, []byte("half-written"), 0o644)

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	CheckModel(t, s2.Snapshot(), []string{"a", "b"}, nil)
	for _, path := range []string{orphan, tmp} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", path)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, genFileName(live))); err != nil {
		t.Fatalf("live generation removed: %v", err)
	}
}

// TestDirectoryLock: a store directory can be open in one Store at a
// time; the lock is released by Close (and by the kernel on crash).
func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	if _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	}
	mustAppend(t, s, "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	CheckModel(t, s2.Snapshot(), []string{"a"}, nil)
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, "a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("b"); err == nil {
		t.Fatal("Append after Close succeeded")
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after Close succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact after Close succeeded")
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	w, err := createWAL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	values := []string{"", "a", "hello world", string(make([]byte, 10000))}
	for i, v := range values {
		logValue(t, w, v, uint64(i), i%2 == 0)
	}
	// A checksummed record that is not writer-shaped (a flag bit the writer
	// never sets) must read as corruption, not as a value.
	if err := w.appendFramed(appendLogRecord(nil, []byte{walFlagLimit + 1, 'x'}), 1); err != nil {
		t.Fatal(err)
	}
	w.close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, good, err := parseWAL(data)
	if err != nil {
		t.Fatal(err)
	}
	if good >= len(data) {
		t.Fatalf("good = %d includes the malformed record (len %d)", good, len(data))
	}
	if len(recs) != len(values) {
		t.Fatalf("records = %d, want %d", len(recs), len(values))
	}
	for i, want := range values {
		v, seq, hasSeq, row := walRecord(recs[i])
		if v != want || hasSeq != (i%2 == 0) || (hasSeq && seq != uint64(i)) || row != nil {
			t.Fatalf("record %d = %q, seq %d (%v), row %v; want %q, seq %d (%v), no row", i, v, seq, hasSeq, row, want, i, i%2 == 0)
		}
	}
}

// logValue appends v to w as the store's append path frames it.
func logValue(t *testing.T, w *wal, v string, seq uint64, hasSeq bool) {
	t.Helper()
	rec, err := appendWALRecord(nil, v, seq, hasSeq, nil)
	if err == nil {
		err = w.appendFramed(rec, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := manifest{
		nextID: 9,
		walID:  7,
		gens:   []genMeta{{id: 2, n: 100, crc: 0xdeadbeef}, {id: 5, n: 30, crc: 7}},
	}
	back, err := parseManifest(encodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.nextID != m.nextID || back.walID != m.walID ||
		len(back.gens) != len(m.gens) || back.gens[0] != m.gens[0] || back.gens[1] != m.gens[1] {
		t.Fatalf("round trip: got %+v, want %+v", back, m)
	}
}

// TestCrashGenerationBeforeManifest simulates a crash after a compaction
// wrote the merged generation but before the manifest commit: the file is
// a well-formed, unreferenced orphan and must be reclaimed by the next
// Open without its contents ever being served.
func TestCrashGenerationBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	seq := workload.URLLog(80, 23, workload.DefaultURLConfig())
	mustAppend(t, s, seq...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fabricate the prepared-but-uncommitted merge output: a generation
	// file under an id no manifest references.
	orphanID := uint64(9999)
	if _, err := writeGeneration(dir, orphanID, []string{"orphaned", "content"}); err != nil {
		t.Fatal(err)
	}
	// Plus a torn temp from a crash mid-write of the next one.
	tmp := genFileName(orphanID+1) + ".tmp"
	if err := os.WriteFile(filepath.Join(dir, tmp), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, testOpts())
	CheckModel(t, s.Snapshot(), seq, nil)
	if c := s.Count("orphaned"); c != 0 {
		t.Fatalf("orphan content leaked into answers: Count = %d", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{genFileName(orphanID), tmp} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s not reclaimed", name)
		}
	}
}

// TestChecksumMismatchFails: a generation file whose bytes do not match
// the manifest checksum must fail Open loudly (silent bit flips are the
// whole point of carrying the CRC).
func TestChecksumMismatchFails(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, workload.URLLog(60, 29, workload.DefaultURLConfig())...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Generations()[0].ID
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, genFileName(id))
	data, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(gpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testOpts()); err == nil {
		t.Fatal("Open accepted a generation with a checksum mismatch")
	}
}

// TestOlderFormatsRefused: a directory written before the distinct count
// became derived — manifest version 3, log version 1 with its "new to the
// alphabet" flag bit — before columns were laid out at their entropy —
// column image version 1 — before the trie lost its redundant directories —
// trie container version 2 — before RRR offsets took the split order —
// container version 3 — or before a generation became one file —
// manifest version 4 — must be refused by name of the version and
// left byte for byte as it was. Read as today's format, flag 0x01 would be a
// sequence header (or, checksummed but ill-shaped, a "corrupt tail" to
// truncate): acknowledged data reinterpreted or cut off.
func TestOlderFormatsRefused(t *testing.T) {
	oldLog := func(magic uint32, payloads ...[]byte) []byte {
		img := binary.LittleEndian.AppendUint16(binary.LittleEndian.AppendUint32(nil, magic), 1)
		for _, p := range payloads {
			img = appendLogRecord(img, p)
		}
		return img
	}
	oldWAL := oldLog(walMagic, []byte("\x01a"), []byte("\x00a"), []byte("\x01b"), []byte("\x03\x07c"))
	oldManifest := func() []byte {
		w := wire.NewWriter(manifestMagic, 3)
		w.U64(2) // nextID
		w.U64(1) // walID
		w.Int(0) // distinct
		w.Int(0) // generations
		w.Int(0) // schema columns
		return w.Bytes()
	}()
	current := func(t *testing.T, dir string) { // today's empty store
		t.Helper()
		if err := mustOpen(t, dir, testOpts()).Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string) map[string][]byte // the older files, by path under dir
		open  func(dir string) error
		want  string
	}{
		{"plain store", func(t *testing.T, dir string) map[string][]byte {
			return map[string][]byte{manifestName: oldManifest, walFileName(1): oldWAL}
		}, func(dir string) error { _, err := Open(dir, testOpts()); return err }, "unsupported version 3"},
		{"log under today's manifest", func(t *testing.T, dir string) map[string][]byte {
			current(t, dir)
			return map[string][]byte{walFileName(1): oldWAL}
		}, func(dir string) error { _, err := Open(dir, testOpts()); return err }, "unsupported log version 1"},
		{"sharded store", func(t *testing.T, dir string) map[string][]byte {
			return map[string][]byte{
				shardsName: encodeShards(shardsManifest{shards: 1, partitioner: partitionerName}),
				routerName: oldLog(routerMagic, []byte{0, 0, 0}),
				filepath.Join(shardDirName(0), manifestName):   oldManifest,
				filepath.Join(shardDirName(0), walFileName(1)): oldLog(walMagic, []byte("\x03\x00a"), []byte("\x02\x01a"), []byte("\x03\x02b")),
			}
		}, func(dir string) error { _, err := OpenSharded(dir, nil); return err }, "unsupported log version 1"},
		{"shard under today's router log", func(t *testing.T, dir string) map[string][]byte {
			ss, err := OpenSharded(dir, &ShardedOptions{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			return map[string][]byte{filepath.Join(shardDirName(0), manifestName): oldManifest}
		}, func(dir string) error { _, err := OpenSharded(dir, nil); return err }, "unsupported version 3"},
		{"ROUTER version 2 (a byte per value)", func(t *testing.T, dir string) map[string][]byte {
			// Today's two-shard store, flushed and with a WAL tail, its
			// ROUTER rewritten the way version 2 laid the same order out:
			// one shard-id byte per value. Every file is held unchanged.
			img := routerLogImage(t, dir, 2)
			ids, err := readRouterLog(dir, 2)
			if err != nil || len(ids) != 601 {
				t.Fatalf("today's ROUTER: %d ids, %v", len(ids), err)
			}
			files := map[string][]byte{}
			err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, err := filepath.Rel(dir, path)
				if err == nil {
					files[rel], err = os.ReadFile(path)
				}
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(files[routerName], img) {
				t.Fatal("walk missed the ROUTER log")
			}
			files[routerName] = appendLogRecord(logHeader(routerMagic, 2), ids)
			return files
		}, func(dir string) error { _, err := OpenSharded(dir, nil); return err }, "unsupported log version 2, want 3"},
		{"version 1 column file", func(t *testing.T, dir string) map[string][]byte {
			// Today's store with a flushed columnar generation, its column
			// section rewritten the way version 1 laid it out (every presence
			// vector, raw planes, a length per vector) and the manifest's
			// checksum moved with it.
			s := mustOpen(t, dir, colTestOpts())
			vals, rows := colTestData(40)
			if err := s.AppendBatchRows(vals, rows); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			fc := s.shards[0].state.Load().gens[0].cols
			w := wire.NewWriter(colMagic, 1)
			w.Int(len(fc.cols))
			w.Int(fc.n)
			for j := range fc.cols {
				c := &fc.cols[j]
				w.Byte(byte(c.kind))
				c.presence.EncodeTo(w) // colTestData leaves NULLs in both columns
				if c.kind == ColUint64 {
					nums := make([]uint64, c.m)
					for i := range nums {
						nums[i] = fc.presentValue(j, i).U64()
					}
					// The wavelet matrix's seven planes (values below 100),
					// each a plain vector: every plane's bits in the order
					// the previous one's stable partition left the values.
					w.Byte(7)
					for d := 0; d < 7; d++ {
						b := bitvec.NewBuilder(len(nums))
						var zeros, ones []uint64
						for _, v := range nums {
							bit := byte(v >> uint(6-d) & 1)
							b.AppendBit(bit)
							if bit == 0 {
								zeros = append(zeros, v)
							} else {
								ones = append(ones, v)
							}
						}
						b.Build().EncodeTo(w)
						nums = append(zeros, ones...)
					}
				}
			}
			id := s.Generations()[0].ID
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, secs := genFileSections(t, filepath.Join(dir, genFileName(id)))
			secs[secCols] = w.Bytes()
			return currentGen(t, dir, genImage(secs))
		}, func(dir string) error { _, err := Open(dir, testOpts()); return err }, "column section: wire: unsupported version 1"},
		{"column image v2", func(t *testing.T, dir string) map[string][]byte {
			// Today's store over the golden schema (without the skew column
			// version 2 predates) with one flushed generation of the golden
			// rows' length, its column section replaced by the version 2
			// image testdata/cols_v2.col holds for those rows — every plane
			// plain, no kind bytes — and the manifest's checksum moved with it.
			old, err := os.ReadFile(filepath.Join("testdata", goldenColV2File))
			if err != nil {
				t.Fatal(err)
			}
			opts := testOpts()
			opts.Columns = goldenColSchema()[:6]
			s := mustOpen(t, dir, opts)
			if err := s.AppendBatch(make([]string, len(goldenColRows()))); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			id := s.Generations()[0].ID
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, _, secs := genFileSections(t, filepath.Join(dir, genFileName(id)))
			secs[secCols] = old
			return currentGen(t, dir, genImage(secs))
		}, func(dir string) error { _, err := Open(dir, testOpts()); return err }, "column section: wire: unsupported version 2, want 3"},
		{"manifest version 4 (three files a generation)", func(t *testing.T, dir string) map[string][]byte {
			// Today's columnar generation split the way version 4 kept it: the
			// trie container in gen-<id>.wt, the column image in .col and the
			// blob directory in .cd, each with its CRC in the manifest entry.
			path := flushedColumnGen(t, dir)
			_, _, secs := genFileSections(t, path)
			data, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			m, err := parseManifest(data)
			if err != nil {
				t.Fatal(err)
			}
			g := m.gens[0]
			w := wire.NewWriter(manifestMagic, 4)
			w.U64(m.nextID)
			w.U64(m.walID)
			w.Int(1)
			w.U64(g.id)
			w.Int(g.n)
			for _, sec := range secs {
				w.U32(genCRC(sec))
			}
			w.Int(len(m.schema))
			for _, c := range m.schema {
				w.Str(c.Name)
				w.Byte(byte(c.Kind))
			}
			stem := strings.TrimSuffix(genFileName(g.id), ".wt")
			files := map[string][]byte{manifestName: w.Bytes(),
				stem + ".wt": secs[secTrie], stem + ".col": secs[secCols], stem + ".cd": secs[secBlobs]}
			if files[walFileName(m.walID)], err = os.ReadFile(filepath.Join(dir, walFileName(m.walID))); err != nil {
				t.Fatal(err)
			}
			return files
		}, func(dir string) error { _, err := Open(dir, testOpts()); return err }, "unsupported version 4"},
		// The generation cases: today's store with one flushed generation,
		// its trie section replaced by the file an older build wrote for the
		// same values and the manifest's checksum moved with it. gen_persist_v2.wt is the commit
		// before trie format v4 (DFUDS shape, internal-node marks,
		// cumulative-ones directory); gen_persist_v3.wt is trie format v4,
		// the bytes its golden file pinned (lexicographic RRR offsets).
		{"container version 2 generation", oldGeneration("gen_persist_v2.wt", workload.URLLog(60, 29, workload.DefaultURLConfig())),
			func(dir string) error { _, err := Open(dir, testOpts()); return err }, "wire: unsupported version 2, want 4"},
		{"container version 3 generation", oldGeneration("gen_persist_v3.wt", v4GoldenSeq()),
			func(dir string) error { _, err := Open(dir, testOpts()); return err }, "wire: unsupported version 3, want 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := tc.setup(t, dir)
			for name, data := range files {
				path := filepath.Join(dir, name)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			for attempt := 0; attempt < 2; attempt++ {
				err := tc.open(dir)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("open %d = %v, want a refusal naming %q", attempt, err, tc.want)
				}
				for name, data := range files {
					if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
						t.Fatalf("open %d: %s no longer holds its %d bytes (%d now, %v)", attempt, name, len(data), len(got), err)
					}
				}
			}
		})
	}
}

// oldGeneration sets up TestOlderFormatsRefused's case of a store whose
// one generation, of vals, an older build wrote: file under testdata.
func oldGeneration(file string, vals []string) func(t *testing.T, dir string) map[string][]byte {
	return func(t *testing.T, dir string) map[string][]byte {
		old, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir, testOpts())
		mustAppend(t, s, vals...)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return currentGen(t, dir, genImage([numSections][]byte{old}))
	}
}

// currentGen returns the files of TestOlderFormatsRefused's case of a
// closed store in dir whose one generation file is img: the file, the
// manifest with its checksum moved to match, and the WAL.
func currentGen(t *testing.T, dir string, img []byte) map[string][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	m.gens[0].crc = genCRC(img)
	files := map[string][]byte{manifestName: encodeManifest(m), genFileName(m.gens[0].id): img}
	if files[walFileName(m.walID)], err = os.ReadFile(filepath.Join(dir, walFileName(m.walID))); err != nil {
		t.Fatal(err)
	}
	return files
}

// v4GoldenSeq is the sequence testdata/gen_persist_v3.wt holds: a URL log
// plus the empty string, a chain of proper prefixes and a 300-byte key.
func v4GoldenSeq() []string {
	seq := workload.URLLog(3000, 7, workload.DefaultURLConfig())
	long := make([]byte, 300)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	return append(seq, "", "a", "ab", "abc", string(long), "", "ab")
}

// TestFlushLeavesOneWAL pins the log lifecycle: a flush unlinks every
// log the new manifest supersedes, so each store directory (each shard
// of a sharded store) holds exactly its live WAL afterwards.
func TestFlushLeavesOneWAL(t *testing.T) {
	wals := func(dir string) int {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	defer s.Close()
	sdir := t.TempDir()
	ss, err := OpenSharded(sdir, shardedCrashOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for round := 0; round < 3; round++ {
		batch := []string{fmt.Sprintf("a-%d", round), fmt.Sprintf("b-%d", round), "dup", fmt.Sprintf("c-%d", round)}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := ss.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ss.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := wals(dir); n != 1 {
			t.Fatalf("round %d: plain store holds %d WAL files, want 1", round, n)
		}
		shards, err := filepath.Glob(filepath.Join(sdir, "shard-*"))
		if err != nil || len(shards) != ss.ShardCount() {
			t.Fatalf("round %d: %d shard dirs (%v), want %d", round, len(shards), err, ss.ShardCount())
		}
		for _, sh := range shards {
			if n := wals(sh); n != 1 {
				t.Fatalf("round %d: %s holds %d WAL files, want 1", round, filepath.Base(sh), n)
			}
		}
	}
}

// writeGeneration is writeGenerationFrom for an in-memory slice —
// convenience for tests and callers that already hold the sequence.
func writeGeneration(dir string, id uint64, seq []string) (genMeta, error) {
	ix, err := freezeSeq(seq)
	if err != nil {
		return genMeta{}, err
	}
	return writeGenerationFrom(dir, id, nil, nil, ix)
}

// freezeSeq freezes an in-memory slice.
func freezeSeq(seq []string) (*wavelettrie.Frozen, error) {
	return wavelettrie.NewAppendOnlyFrom(seq).Frozen()
}
