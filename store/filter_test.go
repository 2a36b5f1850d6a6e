package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// TestFilterNoFalseNegatives: every stored value and every byte prefix
// of it must pass the filter — a false negative would silently drop
// reads. Probes around the bounds check the range logic.
func TestFilterNoFalseNegatives(t *testing.T) {
	seq := workload.URLLog(500, 3, workload.DefaultURLConfig())
	seq = append(seq, "", "a", string([]byte{0xff, 0xff}), "zzzz/very/long/path/beyond/eight/bytes")
	distinct := workload.Distinct(seq)
	f := buildFilter(distinct, 123)

	for _, v := range distinct {
		if !f.mayContain(newProbe(v, false)) {
			t.Fatalf("false negative: mayContain(%q)", v)
		}
		for j := 0; j <= len(v); j++ {
			if !f.mayContain(newProbe(v[:j], true)) {
				t.Fatalf("false negative: mayContain(prefix %q)", v[:j])
			}
		}
	}

	// Out-of-bounds keys are proven absent regardless of Bloom bits.
	if f.mayContain(newProbe(f.max+"x", false)) {
		t.Fatal("key above max accepted")
	}
	if f.min != "" && f.mayContain(newProbe(f.min[:len(f.min)-1], false)) &&
		f.min[:len(f.min)-1] < f.min {
		// A strict prefix of min is below min: must be rejected by bounds.
		t.Fatal("key below min accepted")
	}
	if f.mayContain(newProbe(f.max+"x", true)) {
		t.Fatal("prefix above max accepted")
	}
}

// TestFilterFalsePositiveRate: the Bloom sizing should keep random
// absent probes mostly filtered (sanity bound, not a tight one).
func TestFilterFalsePositiveRate(t *testing.T) {
	// Keys must differ inside the first filterMaxPrefix bytes, or the
	// prefix truncation legitimately answers "maybe".
	distinct := make([]string, 2000)
	for i := range distinct {
		distinct[i] = fmt.Sprintf("k%05d", i*2)
	}
	f := buildFilter(distinct, 0)
	r := rand.New(rand.NewSource(7))
	hits := 0
	const probes = 2000
	for i := 0; i < probes; i++ {
		// In-bounds but never stored (odd suffixes).
		if f.mayContain(newProbe(fmt.Sprintf("k%05d", r.Intn(2000)*2+1), false)) {
			hits++
		}
	}
	if hits > probes/4 {
		t.Fatalf("false positive rate %d/%d — filter is not filtering", hits, probes)
	}
}

// TestFilterRoundTrip: encode/parse preserves behavior, and a filter
// built for different generation bytes (stale genCRC) is detected.
func TestFilterRoundTrip(t *testing.T) {
	distinct := []string{"", "alpha", "beta/gamma", "omega"}
	f := buildFilter(distinct, 77)
	back, err := parseFilter(encodeFilter(f))
	if err != nil {
		t.Fatal(err)
	}
	if back.genCRC != 77 || back.min != f.min || back.max != f.max || back.nbits != f.nbits {
		t.Fatalf("round trip: got %+v, want %+v", back, f)
	}
	for _, v := range distinct {
		if !back.mayContain(newProbe(v, false)) {
			t.Fatalf("reloaded filter lost %q", v)
		}
	}
	// Every single-byte corruption — header, bounds, Bloom words or the
	// trailing CRC — must be rejected (a flipped Bloom bit that parsed
	// cleanly would be a silent false negative), and never panic.
	data := encodeFilter(f)
	for i := range data {
		data[i] ^= 0x41
		if _, err := parseFilter(data); err == nil {
			t.Fatalf("single-byte corruption at offset %d accepted", i)
		}
		data[i] ^= 0x41
	}
}

// TestFilterPrunesGenerations: a read for a key outside a generation's
// range must answer correctly while skipping that generation — checked
// indirectly by differential answers on a store with disjoint key
// ranges per generation.
func TestFilterPrunesGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	var all []string
	for g := 0; g < 4; g++ {
		for i := 0; i < 50; i++ {
			v := fmt.Sprintf("range%d/key%04d", g, i)
			mustAppend(t, s, v)
			all = append(all, v)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	gens := s.Generations()
	if len(gens) != 4 {
		t.Fatalf("generations = %d, want 4", len(gens))
	}
	for g, gi := range gens {
		wantMin := fmt.Sprintf("range%d/key0000", g)
		wantMax := fmt.Sprintf("range%d/key0049", g)
		if gi.MinValue != wantMin || gi.MaxValue != wantMax {
			t.Fatalf("gen %d bounds [%q,%q], want [%q,%q]", g, gi.MinValue, gi.MaxValue, wantMin, wantMax)
		}
		if gi.FilterBits == 0 {
			t.Fatalf("gen %d has no filter", g)
		}
	}
	sn := s.Snapshot()
	for i, v := range all {
		if c := sn.Count(v); c != 1 {
			t.Fatalf("Count(%q) = %d, want 1", v, c)
		}
		if pos, ok := sn.Select(v, 0); !ok || pos != i {
			t.Fatalf("Select(%q,0) = %d,%v want %d", v, pos, ok, i)
		}
	}
	if c := sn.CountPrefix("range2/"); c != 50 {
		t.Fatalf("CountPrefix(range2/) = %d, want 50", c)
	}
	if c := sn.Count("range9/absent"); c != 0 {
		t.Fatalf("Count(absent) = %d", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFilterMissingRebuilt: deleting (or corrupting) a filter file must
// not affect recovery or answers — it is rebuilt from the index and
// rewritten beside it.
func TestFilterMissingRebuilt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	seq := workload.URLLog(120, 19, workload.DefaultURLConfig())
	mustAppend(t, s, seq...)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Generations()[0].ID
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fpath := filepath.Join(dir, filterFileName(id))

	for name, mutate := range map[string]func(){
		"missing": func() { os.Remove(fpath) },
		"corrupt-tail": func() {
			data, err := os.ReadFile(fpath)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-1] ^= 0xff
			os.WriteFile(fpath, data, 0o644)
		},
		"corrupt-bloom": func() {
			data, err := os.ReadFile(fpath)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10 // a flipped filter bit mid-record
			os.WriteFile(fpath, data, 0o644)
		},
		"stale-crc": func() {
			f := buildFilter([]string{"not", "the", "real", "alphabet"}, 0xbad)
			os.WriteFile(fpath, encodeFilter(f), 0o644)
		},
	} {
		mutate()
		s := mustOpen(t, dir, testOpts())
		checkSeq(t, s, seq)
		for _, v := range seq[:10] {
			if c := s.Count(v); c == 0 {
				t.Fatalf("%s: Count(%q) = 0 after filter rebuild", name, v)
			}
		}
		if s.Generations()[0].FilterBits == 0 {
			t.Fatalf("%s: filter not rebuilt", name)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(fpath); err != nil {
			t.Fatalf("%s: filter file not rewritten: %v", name, err)
		}
	}
}

// TestCrashFilterBeforeManifest simulates a crash after a compaction
// wrote the merged generation's filter (and index) but before the
// manifest commit: both files are unreferenced orphans and must be
// reclaimed by the next Open without disturbing answers.
func TestCrashFilterBeforeManifest(t *testing.T) {
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

	// Fabricate the prepared-but-uncommitted merge output: a filter and
	// generation file under an id no manifest references.
	orphanID := uint64(9999)
	orphanGen, err := writeGeneration(dir, orphanID, []string{"orphaned", "content"})
	if err != nil {
		t.Fatal(err)
	}
	_ = orphanGen
	// Plus a torn temp from a crash mid-filter-write.
	tmp := filepath.Join(dir, filterFileName(orphanID+1)+".tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s = mustOpen(t, dir, testOpts())
	checkSeq(t, s, seq)
	if c := s.Count("orphaned"); c != 0 {
		t.Fatalf("orphan content leaked into answers: Count = %d", c)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		genFileName(orphanID), filterFileName(orphanID), filterFileName(orphanID+1) + ".tmp",
	} {
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
