package dynbv

import (
	"math/rand"
	"testing"
)

// TestAlternatingBitsWorstCase: alternating bits maximize the run count
// (every run has length 1), the adversarial case for RLE. The tree must
// stay balanced and correct, and the γ size approaches 2 bits/bit.
func TestAlternatingBitsWorstCase(t *testing.T) {
	v := New()
	n := 50000
	for i := 0; i < n; i++ {
		v.Insert(v.Len(), byte(i&1))
	}
	if v.RunCount() != n {
		t.Fatalf("RunCount=%d want %d", v.RunCount(), n)
	}
	checkTree(t, v)
	for i := 0; i < n; i += 997 {
		if v.Access(i) != byte(i&1) {
			t.Fatalf("Access(%d)", i)
		}
		if v.Rank1(i) != i/2 {
			t.Fatalf("Rank1(%d)=%d want %d", i, v.Rank1(i), i/2)
		}
	}
	// γ(1) = 1 bit per run → ~1 bit/bit + header; never more than 2.
	if enc := v.EncodedSizeBits(); enc > 2*n {
		t.Fatalf("encoded %d bits for %d alternating bits", enc, n)
	}
	// Deleting every other bit collapses to a single run.
	for i := n/2 - 1; i >= 0; i-- {
		v.Delete(2*i + 1)
	}
	if v.RunCount() != 1 || v.Ones() != 0 {
		t.Fatalf("after deleting ones: runs=%d ones=%d", v.RunCount(), v.Ones())
	}
	checkTree(t, v)
}

// TestMidpointInsertStorm: repeated inserts at the same midpoint split the
// same region over and over — the rebalancing hot path.
func TestMidpointInsertStorm(t *testing.T) {
	v := NewInit(0, 2)
	for i := 0; i < 30000; i++ {
		v.Insert(v.Len()/2, byte(i&1))
	}
	checkTree(t, v)
	if v.Len() != 30002 {
		t.Fatalf("Len=%d", v.Len())
	}
	if v.Ones() != 15000 {
		t.Fatalf("Ones=%d", v.Ones())
	}
}

// TestHugeInitThenScatteredEdits: a 2^30 Init run edited at scattered
// positions must stay cheap (few runs) and correct at the edit points.
func TestHugeInitThenScatteredEdits(t *testing.T) {
	n := 1 << 30
	v := NewInit(0, n)
	r := rand.New(rand.NewSource(190))
	positions := map[int]bool{}
	for i := 0; i < 200; i++ {
		p := r.Intn(v.Len())
		v.Insert(p, 1)
		positions[p] = true
	}
	if v.Len() != n+200 || v.Ones() != 200 {
		t.Fatalf("Len=%d Ones=%d", v.Len(), v.Ones())
	}
	if v.RunCount() > 401 {
		t.Fatalf("RunCount=%d for 200 scattered ones", v.RunCount())
	}
	checkTree(t, v)
	// Every inserted 1 findable via Select1 and consistent with Rank.
	for idx := 0; idx < 200; idx++ {
		p := v.Select1(idx)
		if v.Access(p) != 1 || v.Rank1(p) != idx {
			t.Fatalf("Select1(%d)=%d inconsistent", idx, p)
		}
	}
}

// TestRunBoundaryDeleteMerge: deletions that empty a run must merge its
// equal-bit neighbours, keeping the run invariant (checked by checkTree's
// adjacent-equal-run assertion).
func TestRunBoundaryDeleteMerge(t *testing.T) {
	v := New()
	v.AppendRun(0, 10)
	v.AppendRun(1, 1)
	v.AppendRun(0, 10)
	if v.RunCount() != 3 {
		t.Fatalf("RunCount=%d", v.RunCount())
	}
	v.Delete(10) // removes the singleton 1-run
	if v.RunCount() != 1 || v.Len() != 20 || v.Ones() != 0 {
		t.Fatalf("merge failed: runs=%d len=%d ones=%d", v.RunCount(), v.Len(), v.Ones())
	}
	checkTree(t, v)
}
