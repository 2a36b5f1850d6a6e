package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
)

// TestVariantsBuildIdenticalStructures: both variants implement the same
// Definition 3.1, so over any sequence their trie shapes, labels and
// bitvector contents must be bit-identical.
func TestVariantsBuildIdenticalStructures(t *testing.T) {
	f := func(ids []uint8) bool {
		words := []string{"a", "ab", "b", "ba", "q/x", "q/y", "zz", ""}
		seq := make([]bitstr.BitString, len(ids))
		for i, id := range ids {
			seq[i] = bitstr.EncodeString(words[int(id)%len(words)])
		}
		if len(seq) == 0 {
			return true
		}
		return dumpEq(NewAppendOnlyFromBits(seq).Dump(), NewDynamicFromBits(seq).Dump())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func dumpEq(a, b *DumpNode) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Label != b.Label || a.Bits != b.Bits || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if !dumpEq(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

// TestDynamicInsertAnywhereEqualsRebuild: inserting elements at arbitrary
// positions must yield the same structure as appending the final sequence
// in order.
func TestDynamicInsertAnywhereEqualsRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(180))
	words := []string{"x", "y", "xy", "xz"}
	for trial := 0; trial < 40; trial++ {
		d := NewDynamic()
		var ref []bitstr.BitString
		for i := 0; i < 60; i++ {
			s := bitstr.EncodeString(words[r.Intn(len(words))])
			pos := r.Intn(len(ref) + 1)
			d.InsertBits(s, pos)
			ref = append(ref, bitstr.Empty)
			copy(ref[pos+1:], ref[pos:])
			ref[pos] = s
		}
		want := NewAppendOnlyFromBits(ref).Dump()
		if !dumpEq(d.Dump(), want) {
			t.Fatalf("trial %d: dynamic structure diverges from rebuild", trial)
		}
	}
}
