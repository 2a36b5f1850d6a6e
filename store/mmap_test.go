package store

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// heapGenerations decodes every generation the manifest in dir lists
// from its file's bytes read onto the heap — decodeGeneration with no
// region, the arm loadGeneration takes where it cannot map the file —
// and returns them beside the buffers they were decoded from.
func heapGenerations(dir string) ([]*generation, [][]byte, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, err
	}
	m, err := parseManifest(raw)
	if err != nil {
		return nil, nil, err
	}
	gens, bufs := make([]*generation, len(m.gens)), make([][]byte, len(m.gens))
	for i, meta := range m.gens {
		if bufs[i], err = os.ReadFile(filepath.Join(dir, genFileName(meta.id))); err != nil {
			return nil, nil, err
		}
		if gens[i], err = decodeGeneration(meta, m.schema, bufs[i], nil); err != nil {
			return nil, nil, err
		}
	}
	return gens, bufs, nil
}

// serveFromHeap swaps every shard's generations in the quiescent store s
// for their heapGenerations, so that s's reads run over the heap arm.
func serveFromHeap(t *testing.T, s *Store) {
	t.Helper()
	for _, sh := range s.shards {
		gens, _, err := heapGenerations(sh.dir)
		if err != nil {
			t.Fatal(err)
		}
		sh.adminMu.Lock()
		st := sh.state.Load()
		if len(gens) != len(st.gens) {
			t.Fatalf("%s: manifest lists %d generations, the state %d", sh.dir, len(gens), len(st.gens))
		}
		sh.publish(&storeState{gens: gens, sealed: st.sealed, mem: st.mem})
		sh.adminMu.Unlock()
	}
}

// wordsInside counts the words of every []uint64 reachable from v, and
// of those the words of the slices that start inside [lo, hi).
func wordsInside(v reflect.Value, lo, hi uintptr, seen map[uintptr]bool) (in, all int) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0, 0
		}
		seen[v.Pointer()] = true
		return wordsInside(v.Elem(), lo, hi, seen)
	case reflect.Interface:
		if !v.IsNil() {
			return wordsInside(v.Elem(), lo, hi, seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			a, b := wordsInside(v.Field(i), lo, hi, seen)
			in, all = in+a, all+b
		}
	case reflect.Slice, reflect.Array:
		if v.Type().Elem().Kind() == reflect.Uint64 {
			if v.Len() > 0 && v.Kind() == reflect.Slice {
				if p := v.Pointer(); lo <= p && p < hi {
					in = v.Len()
				}
				all = v.Len()
			}
			return in, all
		}
		for i := 0; i < v.Len(); i++ {
			a, b := wordsInside(v.Index(i), lo, hi, seen)
			in, all = in+a, all+b
		}
	}
	return in, all
}

// checkAliases fails t unless g decoded zero-copy over buf: every word
// slice of its trie — the encoded payloads; the rank and select
// directories rebuilt at decode hold other types — lies inside buf, and
// so do every numeric column's planes — the plain planes' words and the
// RRR planes' class and offset streams — and every blob column's payload.
func checkAliases(t *testing.T, g *generation, buf []byte) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(&buf[0]))
	hi := lo + uintptr(len(buf))
	if in, all := wordsInside(reflect.ValueOf(g.seg.t), lo, hi, map[uintptr]bool{}); in != all || all == 0 {
		t.Fatalf("generation %d: %d of its trie's %d words lie in the file image", g.id, in, all)
	}
	inside := func(p unsafe.Pointer) bool { return lo <= uintptr(p) && uintptr(p) < hi }
	if g.cols == nil {
		t.Fatalf("generation %d has no column set", g.id)
	}
	for i := range g.cols.cols {
		c := &g.cols.cols[i]
		switch {
		case c.kind == ColUint64 && c.num.Width() > 0:
			if in, all := wordsInside(reflect.ValueOf(c.num), lo, hi, map[uintptr]bool{}); in != all || all == 0 {
				t.Fatalf("generation %d: %d of column %d's %d plane words lie in the file image", g.id, in, i, all)
			}
		case c.kind == ColBytes && len(c.payload) > 0:
			if !inside(unsafe.Pointer(&c.payload[0])) {
				t.Fatalf("generation %d: column %d payload is not in the file image", g.id, i)
			}
		default:
			t.Fatalf("generation %d: column %d holds no planes or payload to check", g.id, i)
		}
	}
}

// TestMmapHeapDifferential opens a columnar directory of three
// generations — the third's numeric column one skewed plane, RRR-coded —
// as Open does — mapped — and checks it against the appended sequence
// and rows; then it decodes the same files from their bytes read onto
// the heap, as where the platform cannot map, checks that those
// generations alias the read buffers (one zero-copy decoder either way),
// and serves the same checks and probes from them.
func TestMmapHeapDifferential(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	dir := t.TempDir()
	seq := workload.URLLog(1800, 21, workload.DefaultURLConfig())
	_, rows := colTestData(600)
	for i := 600; i < len(seq); i++ {
		score := uint64(0)
		if i%20 == 0 {
			score = 99
		}
		rows = append(rows, Row{U64(score), Blob([]byte{byte(i)})})
	}
	s := mustOpen(t, dir, colTestOpts())
	for _, half := range [][2]int{{0, 300}, {300, 600}, {600, 1800}} {
		if err := s.AppendBatchRows(seq[half[0]:half[1]], rows[half[0]:half[1]]); err != nil {
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
	for _, g := range s.Generations() {
		if !g.Mmapped || g.FileBytes <= 0 {
			t.Fatalf("generation %d: Mmapped=%v, FileBytes=%d", g.ID, g.Mmapped, g.FileBytes)
		}
	}
	CheckModel(t, s.Snapshot(), seq, rows, ModelSchema...)

	gens, bufs, err := heapGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		if g.region != nil || g.ix.Mapped() || g.cols.region != nil {
			t.Fatalf("heap-decoded generation %d claims a mapping", g.id)
		}
		checkAliases(t, g, bufs[i])
	}
	if skew := gens[2].cols.cols[0]; skew.num.SizeBits() >= skew.m {
		t.Fatalf("the skewed generation's plane takes %d bits for %d rows: not RRR-coded", skew.num.SizeBits(), skew.m)
	}
	serveFromHeap(t, s)
	for _, g := range s.Generations() {
		if g.Mmapped || g.ResidentBytes != -1 {
			t.Fatalf("heap generation %d: Mmapped=%v, ResidentBytes=%d", g.ID, g.Mmapped, g.ResidentBytes)
		}
	}
	CheckModel(t, s.Snapshot(), seq, rows, ModelSchema...)
}

// TestTornGenerationFailsOpen simulates a torn write / partial page
// loss in a generation file: a truncated or bit-flipped file — or an
// intact one whose manifest entry carries checksum 0 — must fail Open
// with a checksum error, loudly, whether the file is mapped or read onto
// the heap — the decode skips deep validation, so the CRC gate is the only thing standing
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

			s, err := Open(dir, testOpts())
			if err == nil {
				s.Close()
				t.Fatal("Open of torn generation succeeded")
			}
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("Open error %q does not name the checksum", err)
			}
			if _, _, err := heapGenerations(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("heap decode of torn generation: error %v does not name the checksum", err)
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
	CheckModel(t, s.Snapshot(), seq, nil)
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
	// A page of every position, read as a view reads one: the empty
	// prefix's matches, then their values in one batch, the cursor's last
	// use.
	c := seg.cursor(newProbe("", true))
	marks := make([]int, 0, n)
	for {
		if _, ok := c.next(); !ok {
			break
		}
		marks = append(marks, c.mark())
	}
	c.values(marks, func(k int, v []byte) {
		if k == 0 {
			for i := 0; i < 2; i++ {
				runtime.GC()
				time.Sleep(10 * time.Millisecond) // the finalizer goroutine's turn
			}
		}
		if string(v) != seq[marks[k]] {
			t.Fatalf("element %d = %q, want %q", marks[k], v, seq[marks[k]])
		}
	})
	t.Run("columns", testQueryHoldsMappedCols)
}

// testQueryHoldsMappedCols is the same for the column sections: once a
// compaction retires the generations, a view pinned before it is all
// that reaches their mappings, through its segments and column sets —
// so the sets must hold the mappings, every read must hold its set, and
// a row handed out must not point into a mapping at all.
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
	if g := s.shards[0].state.Load().gens[0]; g.region == nil || g.cols.region != g.region {
		t.Fatal("column sections not mmap-loaded")
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
	if _, err := sn.ScanWhere("api/", 0, len(vals)+1, preds, func(idx, pos int, v []byte, _ Row) bool {
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
