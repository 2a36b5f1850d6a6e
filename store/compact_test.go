package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	wavelettrie "repro"
	"repro/internal/workload"
)

// TestCloseDuringCompaction closes the store while the merge of a large
// compaction is in flight. The merge polls closed and must give up at
// once — before its write stage, so no merged file is ever made — letting
// Close return in a fraction of the time the merge would have run; the
// compaction reports errClosed without marking the store failed, and the
// directory reopens with every acknowledged value, the victims intact and
// no file the manifest does not name.
func TestCloseDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	const gens, per = 4, 1 << 15
	seq := workload.URLLog(gens*per, 23, workload.DefaultURLConfig())
	for g := 0; g < gens; g++ {
		if err := s.AppendBatch(seq[g*per : (g+1)*per]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	want := append(seq[:len(seq):len(seq)], "acknowledged-but-never-flushed")
	mustAppend(t, s, want[len(seq)])

	// What the merge costs when nobody interrupts it.
	var parts []*wavelettrie.Frozen
	for _, g := range s.shards[0].state.Load().gens {
		parts = append(parts, g.ix)
	}
	t0 := time.Now()
	if _, err := wavelettrie.ConcatFrozen(nil, parts...); err != nil {
		t.Fatal(err)
	}
	full := time.Since(t0)

	// A compaction's first step is to take adminMu and allocate the merged
	// generation's id; the merge follows with no lock held. Holding adminMu
	// until the id is gone therefore stops the compaction right where the
	// merge begins, and from the moment it is released the merge is in
	// flight for about `full`.
	s.shards[0].adminMu.Lock()
	gid := s.shards[0].nextID
	compacted := make(chan error, 1)
	go func() { compacted <- s.Compact() }()
	for s.shards[0].nextID == gid {
		s.shards[0].adminMu.Unlock()
		runtime.Gosched()
		s.shards[0].adminMu.Lock()
	}
	s.shards[0].adminMu.Unlock()

	t0 = time.Now()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	took := time.Since(t0)
	t.Logf("uninterrupted merge %v, Close during it %v", full, took)
	if err := <-compacted; err != errClosed {
		t.Fatalf("interrupted compaction returned %v, want errClosed", err)
	}
	if _, err := os.Stat(filepath.Join(dir, genFileName(gid))); !os.IsNotExist(err) {
		t.Fatalf("the merge ran on to its write stage after Close (stat %s: %v)", genFileName(gid), err)
	}
	if bound := full/2 + 100*time.Millisecond; took > bound {
		t.Fatalf("Close took %v with a %v merge in flight, want under %v", took, full, bound)
	}

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if got := s2.Snapshot().Slice(0, s2.Len()); len(got) != len(want) {
		t.Fatalf("reopened with %d values, want %d", len(got), len(want))
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reopened store differs at %d: %q, want %q", i, got[i], want[i])
			}
		}
	}
	if n := len(s2.Generations()); n != gens {
		t.Fatalf("reopened with %d generations, want the %d victims", n, gens)
	}
	named := map[string]bool{}
	for _, g := range s2.Generations() {
		named[genFileName(g.ID)] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "gen-") && !named[name] {
			t.Fatalf("orphan %s left in the directory", name)
		}
	}
	// The victims are whole: the compaction runs to its end now.
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != len(want) || len(s2.Generations()) != 1 || s2.Access(len(seq)-1) != seq[len(seq)-1] {
		t.Fatalf("compaction after reopen: %d values in %d generations", s2.Len(), len(s2.Generations()))
	}
}

// TestCompactionRejectsCorruptVictim gives a compaction a victim whose
// bits disagree with its directories — what a checksummed-but-wrong
// mapped file would look like. The merge must refuse it: the compaction
// returns an error and leaves the victims' files and the manifest as they
// were, so a reopen still serves everything.
func TestCompactionRejectsCorruptVictim(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	mustAppend(t, s, "a", "b", "a", "c")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, "b", "d")
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	manifestBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	// Reload the first victim from its own bytes with the element count
	// (the first field of the body, after the 7-byte container header)
	// raised by one, the way a mapped file is loaded: unvalidated. Its root
	// segment is now a bit short of the count the merge hands it.
	st := s.shards[0].state.Load()
	data, err := st.gens[0].ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	data[7]++
	bad := *st.gens[0]
	if bad.ix, err = wavelettrie.LoadFrozenMapped(data, nil); err != nil {
		t.Fatal(err)
	}
	s.shards[0].state.Store(&storeState{gens: []*generation{&bad, st.gens[1]}, mem: st.mem})

	if err := s.Compact(); err == nil {
		t.Fatal("compaction of a corrupt victim succeeded")
	}
	manifestAfter, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if string(manifestAfter) != string(manifestBefore) {
		t.Fatal("failed compaction rewrote the manifest")
	}
	s.Close()
	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	if got := strings.Join(s2.Snapshot().Slice(0, s2.Len()), ","); got != "a,b,a,c,b,d" {
		t.Fatalf("after the failed compaction the store holds %q", got)
	}
}

// genBenchSink keeps the measured reads from being optimized away.
var genBenchSink int

// BenchmarkSnapshotGenerations prices the generation count for point
// reads — the curve a MaxGenerations policy should be argued from: the
// served point_read mix (40 % Access, 30 % Rank, 30 % Select, uniform
// positions, keys drawn by position) against one pinned view of the same
// 8 × 16 384 + 1 024 URL-log values, their frozen part cut into 1, 2, 4
// and 8 generations and the tail left in the memtable.
func BenchmarkSnapshotGenerations(b *testing.B) {
	const frozen, tail = 8 * 16384, 1024
	seq := workload.URLLog(frozen+tail, 1, workload.DefaultURLConfig())
	count := make(map[string]int, 1<<15)
	for _, v := range seq {
		count[v]++
	}
	type op struct {
		kind, n int
		key     string
	}
	rng := rand.New(rand.NewSource(1))
	ops := make([]op, 1<<12)
	for i := range ops {
		o := op{kind: rng.Intn(10), n: rng.Intn(len(seq)), key: seq[rng.Intn(len(seq))]}
		if o.kind >= 7 { // Select: n is an occurrence index
			o.n = rng.Intn(count[o.key])
		}
		ops[i] = o
	}
	for _, gens := range []int{1, 2, 4, 8} {
		s, err := Open(b.TempDir(), testOpts())
		if err != nil {
			b.Fatal(err)
		}
		for g := 0; g < gens; g++ {
			if err := s.AppendBatch(seq[g*frozen/gens : (g+1)*frozen/gens]); err != nil {
				b.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.AppendBatch(seq[frozen:]); err != nil {
			b.Fatal(err)
		}
		sn := s.Snapshot()
		b.Run(fmt.Sprintf("gens=%d", gens), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch o := ops[i%len(ops)]; {
				case o.kind < 4:
					genBenchSink += len(sn.Access(o.n))
				case o.kind < 7:
					genBenchSink += sn.Rank(o.key, o.n)
				default:
					pos, _ := sn.Select(o.key, o.n)
					genBenchSink += pos
				}
			}
		})
		s.Close()
	}
}
