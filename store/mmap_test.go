package store

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// prepGenerations fills dir with a flushed store of seq (split across
// two generations) and closes it.
func prepGenerations(t *testing.T, dir string, seq []string) {
	t.Helper()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, seq[:len(seq)/2]...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, seq[len(seq)/2:]...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMmapHeapDifferential opens the same directory mmap'd and then
// heap-decoded (sequentially — the directory lock admits one store at a
// time) and checks both agree with the appended sequence — and that the
// mmap path actually engaged.
func TestMmapHeapDifferential(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	seq := workload.URLLog(600, 21, workload.DefaultURLConfig())
	prepGenerations(t, dir, seq)
	probes := []string{seq[0], seq[3], "no-such-value"}

	counts := map[bool][]int{}
	for _, noMmap := range []bool{false, true} {
		opts := testOpts()
		opts.NoMmap = noMmap
		s := mustOpen(t, dir, opts)
		for _, g := range s.Generations() {
			if g.Mmapped == noMmap {
				t.Fatalf("generation %d Mmapped=%v with NoMmap=%v", g.ID, g.Mmapped, noMmap)
			}
			if g.FileBytes <= 0 {
				t.Fatalf("generation %d FileBytes = %d", g.ID, g.FileBytes)
			}
		}
		checkSeq(t, s, seq)
		for _, v := range probes {
			counts[noMmap] = append(counts[noMmap], s.Count(v))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range probes {
		if counts[false][i] != counts[true][i] {
			t.Fatalf("Count(%q): mmap %d vs heap %d", v, counts[false][i], counts[true][i])
		}
	}
}

// TestTornGenerationFailsOpen simulates a torn write / partial page
// loss in a generation file: a truncated or bit-flipped file — or an
// intact one whose manifest entry carries checksum 0 — must fail Open
// with a checksum error, loudly, under both load paths — the decode
// skips deep validation, so the CRC gate is the only thing standing
// between a torn file and silent corruption.
func TestTornGenerationFailsOpen(t *testing.T) {
	for _, mode := range []string{"truncate", "bitflip", "zerocrc"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			seq := workload.URLLog(400, 9, workload.DefaultURLConfig())
			prepGenerations(t, dir, seq)

			// Find a generation file and tear it.
			matches, err := filepath.Glob(filepath.Join(dir, "gen-*.wt"))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no generation files: %v", err)
			}
			victim := matches[0]
			data, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "truncate":
				data = data[:len(data)/2]
			case "bitflip":
				data[len(data)/2] ^= 0x40
			case "zerocrc":
				// An intact file whose manifest entry carries no checksum:
				// every generation is verified, so this is corruption too.
				raw, err := os.ReadFile(filepath.Join(dir, manifestName))
				if err != nil {
					t.Fatal(err)
				}
				m, err := parseManifest(raw)
				if err != nil {
					t.Fatal(err)
				}
				m.gens[0].crc = 0
				if err := writeManifest(dir, m); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(victim, data, 0o644); err != nil {
				t.Fatal(err)
			}

			for _, noMmap := range []bool{false, true} {
				opts := testOpts()
				opts.NoMmap = noMmap
				s, err := Open(dir, opts)
				if err == nil {
					s.Close()
					t.Fatalf("Open(NoMmap=%v) of torn generation succeeded", noMmap)
				}
				if !strings.Contains(err.Error(), "checksum") {
					t.Fatalf("Open(NoMmap=%v) error %q does not name the checksum", noMmap, err)
				}
			}
		})
	}
}

// TestSnapshotSurvivesCompactionOfMappedGens pins a snapshot over
// mmap'd generations, compacts (which unlinks their files), and checks
// the snapshot still answers correctly — the mapping must outlive the
// unlink.
func TestSnapshotSurvivesCompactionOfMappedGens(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	seq := workload.URLLog(500, 13, workload.DefaultURLConfig())
	prepGenerations(t, dir, seq)

	s := mustOpen(t, dir, testOpts())
	defer s.Close()
	sn := s.Snapshot()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.GC() // old generations are unreferenced by the store now
	for i := range seq {
		if g := sn.Access(i); g != seq[i] {
			t.Fatalf("post-compaction snapshot Access(%d) = %q, want %q", i, g, seq[i])
		}
	}
	checkSeq(t, s, seq)
}

// TestQueryInFlightHoldsMappedGen: a query that is still running when the
// last reference to its generation is dropped keeps the generation mapped
// until it returns. The iteration's callback — the caller's reference was
// spent on starting the call — lets the collector finalize whatever is
// unreachable; without the segment's hold on its Frozen the next element
// is read from unmapped memory and the process faults.
func TestQueryInFlightHoldsMappedGen(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	seq := workload.URLLog(500, 13, workload.DefaultURLConfig())
	prepGenerations(t, dir, seq)

	s := mustOpen(t, dir, testOpts())
	defer s.Close()
	seg := s.shards[0].state.Load().gens[0].seg
	if !seg.Mapped() {
		t.Fatal("generation not mmap-loaded")
	}
	n := seg.Len()
	if err := s.Compact(); err != nil { // the store lets go of the generation
		t.Fatal(err)
	}
	seg.Iterate(0, n, func(pos int, v string) bool {
		if pos == 0 {
			for i := 0; i < 2; i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond) // the finalizer goroutine's turn
			}
		}
		if v != seq[pos] {
			t.Fatalf("element %d = %q, want %q", pos, v, seq[pos])
		}
		return true
	})
	t.Run("columns", testQueryHoldsMappedCols)
}

// testQueryHoldsMappedCols is the same for the column files: once a compaction retires the generations, a view pinned before
// it is all that reaches their .col/.cd mappings, and only through the
// column sets — so the sets must hold the mappings, every read must hold
// its set, and a row handed out must not point into a mapping at all.
func testQueryHoldsMappedCols(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	vals, rows := colTestData(400)
	for _, half := range [][2]int{{0, 200}, {200, 400}} {
		if err := s.AppendBatchRows(vals[half[0]:half[1]], rows[half[0]:half[1]]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, testOpts())
	defer s.Close()
	if g := s.Generations()[0]; !g.ColMmapped {
		t.Fatal("column files not mmap-loaded")
	}
	// Cut the way a sharded Snapshot cuts its shards' views: such a view
	// holds segments and column sets, not the store state they came from.
	vals, rows = vals[:len(vals)-1], rows[:len(rows)-1]
	sn := s.Snapshot()
	sn = &Snapshot{n: len(vals), shards: []*shardView{sn.shards[0].prefixed(len(vals))}, schema: sn.schema}
	if err := s.Compact(); err != nil { // the store lets go of both generations
		t.Fatal(err)
	}
	collect := func() {
		for i := 0; i < 2; i++ {
			runtime.GC()
			time.Sleep(10 * time.Millisecond) // the finalizer goroutine's turn
		}
	}
	collect()

	preds := []Pred{{Col: 0, Op: PredGE, Val: 50}}
	want := 0
	for pos := range vals {
		if matchValue(rowCell(rows, pos, 0), preds[0]) {
			want++
		}
	}
	if got, err := sn.CountWhere("", preds...); err != nil || got != want {
		t.Fatalf("CountWhere on the retired view = %d, %v, want %d", got, err, want)
	}
	seen := 0
	if err := sn.ScanWhere("api/", 0, preds, func(idx, pos int, v []byte) bool {
		if idx == 0 {
			collect()
		}
		if string(v) != vals[pos] || !matchValue(rowCell(rows, pos, 0), preds[0]) {
			t.Fatalf("ScanWhere match %d: position %d holds %q %v", idx, pos, v, rowCell(rows, pos, 0))
		}
		seen++
		return true
	}); err != nil || seen == 0 {
		t.Fatalf("ScanWhere on the retired view: %d matches, %v", seen, err)
	}
	got := make([]Row, len(vals))
	for pos := range got {
		got[pos] = sn.Row(pos)
	}
	sn = nil
	collect() // nothing reaches the mappings now; the rows must not need them
	for pos := range got {
		for c := range got[pos] {
			if !cellEq(got[pos][c], rowCell(rows, pos, c)) {
				t.Fatalf("Row(%d)[%d] = %v after the view was dropped, want %v", pos, c, got[pos][c], rowCell(rows, pos, c))
			}
		}
	}
}

// TestFlushAllocations is the allocation-regression guard for the
// structural flush: sealing and freezing a memtable of n elements copies
// the trie's node bitvectors and labels and allocates nothing
// proportional to n — no element is decoded, no string is made, no
// per-node accumulator is kept. The bound is 400 mallocs for 65 536
// elements over 256 values: the flush's real cost is ≈ 270 (the succinct
// components' builders growing, the file writes) and follows the trie's
// node count, not n; the per-element feed it replaced spent n/9.5.
func TestFlushAllocations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	defer s.Close()

	const n = 1 << 16
	vals := workload.URLLog(256, 99, workload.DefaultURLConfig())
	for i := 0; i < n; i++ {
		if err := s.Append(vals[i&255]); err != nil {
			t.Fatal(err)
		}
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("flush of %d elements: %d mallocs", n, allocs)
	if bound := uint64(400); allocs > bound {
		t.Fatalf("flush of %d elements made %d allocations — smells like per-element work (bound %d)",
			n, allocs, bound)
	}
}

// allocStore opens a store holding three flushed generations of URL-log
// values and an unflushed tail — a serving store's shape — and returns it
// with a pool of values, some stored and some never seen.
func allocStore(t *testing.T) (*Store, []string) {
	t.Helper()
	s := mustOpen(t, t.TempDir(), testOpts())
	t.Cleanup(func() { s.Close() })
	seq := workload.URLLog(4*2048, 98, workload.DefaultURLConfig())
	for g := 0; g < 4; g++ {
		if err := s.AppendBatch(seq[g*2048 : (g+1)*2048]); err != nil {
			t.Fatal(err)
		}
		if g < 3 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(s.Generations()) != 3 || s.MemLen() != 2048 {
		t.Fatalf("store shape: %d generations, %d in the memtable", len(s.Generations()), s.MemLen())
	}
	return s, append(seq[:512:512], workload.URLLog(512, 97, workload.DefaultURLConfig())...)
}

// TestAppendAllocations guards the append path: a group commit of 64
// values on a three-generation store — WAL records framed straight into
// the batch's one buffer, the memtable's Patricia insert and bit appends,
// nothing that reads the generations — stays within 3 allocations per
// value (it reads 2.2, all of them new leaves and growing bitvectors; a
// payload allocated per record made it 3.2, copying the key's suffix at
// every trie level 32).
func TestAppendAllocations(t *testing.T) {
	s, pool := allocStore(t)
	batch := make([]string, 64)
	next := 0
	perRun := testing.AllocsPerRun(40, func() {
		for i := range batch {
			batch[i] = pool[next%len(pool)]
			next++
		}
		if err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AppendBatch of 64: %.1f allocations per value", perRun/64)
	if perRun > 3*64 {
		t.Fatalf("AppendBatch of 64 values allocates %.1f times per value, want at most 3", perRun/64)
	}
}
