package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	wavelettrie "repro"
	"repro/store"
)

// TestLoadedExportServesAnalytics saves a two-generation store as a
// snapshot and reopens it the way -load and 'load' do: the result is a
// Frozen, so the §5 commands (distinct, topk, majority, threshold, slice)
// run on it, and DistinctInRange over the whole sequence agrees with the
// store's own counts.
func TestLoadedExportServesAnalytics(t *testing.T) {
	db, err := store.Open(t.TempDir(), &store.Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for g := 0; g < 2; g++ {
		vals := make([]string, 300)
		for i := range vals {
			vals[i] = fmt.Sprintf("host%d/path%d", (i+g)%4, i%7)
		}
		if err := db.AppendBatch(vals); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if gens := len(db.Generations()); gens != 2 {
		t.Fatalf("store holds %d generations, want 2", gens)
	}
	data, err := db.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "export.wt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	ri, ok := st.(wavelettrie.RangeIndex)
	if !ok {
		t.Fatalf("a loaded export is a %T, not a RangeIndex", st)
	}
	n := db.Len()
	if ri.Len() != n {
		t.Fatalf("loaded export holds %d values, the store %d", ri.Len(), n)
	}
	distinct := ri.DistinctInRange(0, n)
	if len(distinct) != db.AlphabetSize() {
		t.Fatalf("DistinctInRange(0, %d) finds %d values, the store holds %d", n, len(distinct), db.AlphabetSize())
	}
	for _, d := range distinct {
		if want := db.Count(d.Value); d.Count != want {
			t.Fatalf("DistinctInRange counts %q %d times, the store %d", d.Value, d.Count, want)
		}
	}
}
