package succinct

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/dfuds"
	"repro/internal/entropy"
	"repro/internal/rrr"
	"repro/internal/workload"
)

func encodeSeq(seq []string) []bitstr.BitString {
	out := make([]bitstr.BitString, len(seq))
	for i, s := range seq {
		out[i] = bitstr.EncodeString(s)
	}
	return out
}

// TestMatchesPointerStatic drives the frozen trie against the pointer
// implementation over the full query surface.
func TestMatchesPointerStatic(t *testing.T) {
	r := rand.New(rand.NewSource(160))
	for _, n := range []int{1, 2, 50, 2000} {
		seq := workload.URLLog(n, 9, workload.DefaultURLConfig())
		st := core.NewStaticFromBits(encodeSeq(seq))
		fz := Freeze(st)
		if fz.Len() != st.Len() || fz.AlphabetSize() != st.AlphabetSize() {
			t.Fatalf("n=%d: totals differ", n)
		}
		// Node by node, in preorder: the shape bit says what the pointer
		// node is, a node's internal index finds the segment its β became,
		// and the ranks inside it count from the segment's own start.
		if fz.tree != nil {
			nd, pending := fz.tree.BinaryRoot(), []dfuds.BinaryNode(nil)
			st.WalkPreorder(func(label bitstr.BitString, isLeaf bool, bv *rrr.Vector) {
				if fz.tree.IsLeaf(nd.Pos) != isLeaf {
					t.Fatalf("n=%d: node %d: shape bit disagrees with the pointer trie", n, nd.ID())
				}
				if lo, hi := fz.labelRange(nd); !bitstr.Equal(fz.labels.Sub(lo, hi), label) {
					t.Fatalf("n=%d: node %d: label differs", n, nd.ID())
				}
				if isLeaf {
					if len(pending) > 0 {
						nd, pending = pending[len(pending)-1], pending[:len(pending)-1]
					}
					return
				}
				start, end := fz.seg(nd.Internal)
				if end-start != bv.Len() || fz.bits.RankIn(start, end-start) != bv.Ones() {
					t.Fatalf("n=%d: node %d: segment [%d,%d) does not hold its β (%d bits, %d ones)", n, nd.ID(), start, end, bv.Len(), bv.Ones())
				}
				for _, pos := range []int{0, bv.Len() / 3, bv.Len() - 1} {
					bit, rank := fz.bits.AccessRankIn(start, pos)
					if wb, wr := bv.AccessRank1(pos); bit != wb || rank != wr {
						t.Fatalf("n=%d: node %d: bit %d of its segment = (%d,%d), want (%d,%d)", n, nd.ID(), pos, bit, rank, wb, wr)
					}
				}
				pending = append(pending, fz.tree.BinaryChild(nd, 1))
				nd = fz.tree.BinaryChild(nd, 0)
			})
		}
		for i := 0; i < n; i++ {
			if !bitstr.Equal(fz.AccessBits(i), st.AccessBits(i)) {
				t.Fatalf("n=%d: Access(%d) differs", n, i)
			}
		}
		dist := workload.Distinct(seq)
		probes := dist
		if len(probes) > 20 {
			probes = probes[:20]
		}
		probes = append(probes, "absent", "")
		for _, p := range probes {
			enc := bitstr.EncodeString(p)
			encP := bitstr.EncodePrefixString(p)
			for trial := 0; trial < 6; trial++ {
				pos := r.Intn(n + 1)
				if fz.RankBits(enc, pos) != st.RankBits(enc, pos) {
					t.Fatalf("Rank(%q,%d) differs", p, pos)
				}
				if fz.RankPrefixBits(encP, pos) != st.RankPrefixBits(encP, pos) {
					t.Fatalf("RankPrefix(%q,%d) differs", p, pos)
				}
			}
			total := st.RankBits(enc, n)
			for idx := 0; idx <= total; idx += 1 + total/5 {
				gp, gok := fz.SelectBits(enc, idx)
				wp, wok := st.SelectBits(enc, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("Select(%q,%d): (%d,%v) vs (%d,%v)", p, idx, gp, gok, wp, wok)
				}
			}
			totalP := st.RankPrefixBits(encP, n)
			for idx := 0; idx <= totalP; idx += 1 + totalP/5 {
				gp, gok := fz.SelectPrefixBits(encP, idx)
				wp, wok := st.SelectPrefixBits(encP, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("SelectPrefix(%q,%d)", p, idx)
				}
			}
		}
	}
}

// checkKeyAgainstStatic compares every keyed operation on one bit string
// — as an exact key and as a prefix — with the pointer trie, at the two
// boundary positions 0 and n (the paths that skip the bitvectors) and at
// random ones.
func checkKeyAgainstStatic(t *testing.T, r *rand.Rand, fz *Trie, st *core.Static, key bitstr.BitString, why string) {
	t.Helper()
	n := st.Len()
	for _, pos := range []int{0, n, r.Intn(n + 1), r.Intn(n + 1)} {
		if got, want := fz.RankBits(key, pos), st.RankBits(key, pos); got != want {
			t.Fatalf("%s %v: Rank(%d) = %d, want %d", why, key, pos, got, want)
		}
		if got, want := fz.RankPrefixBits(key, pos), st.RankPrefixBits(key, pos); got != want {
			t.Fatalf("%s %v: RankPrefix(%d) = %d, want %d", why, key, pos, got, want)
		}
	}
	count, countP := st.RankBits(key, n), st.RankPrefixBits(key, n)
	if got := fz.ContainsBits(key); got != (count > 0) {
		t.Fatalf("%s %v: Contains = %v with count %d", why, key, got, count)
	}
	for _, idx := range []int{-1, 0, count / 2, count - 1, count} {
		gp, gok := fz.SelectBits(key, idx)
		wp, wok := st.SelectBits(key, idx)
		if gok != wok || (gok && gp != wp) {
			t.Fatalf("%s %v: Select(%d) = (%d,%v), want (%d,%v)", why, key, idx, gp, gok, wp, wok)
		}
	}
	for _, idx := range []int{-1, 0, countP / 2, countP - 1, countP} {
		gp, gok := fz.SelectPrefixBits(key, idx)
		wp, wok := st.SelectPrefixBits(key, idx)
		if gok != wok || (gok && gp != wp) {
			t.Fatalf("%s %v: SelectPrefix(%d) = (%d,%v), want (%d,%v)", why, key, idx, gp, gok, wp, wok)
		}
	}
}

// TestAbsentKeyShapes drives the descent with keys that leave the trie in
// every possible way: one flipped bit at every position of a stored key
// (the flip lands inside a label, or on a branch bit — then the key
// continues in the sibling subtree and fails or matches there), every
// proper prefix of a stored key (ends inside a label or at an internal
// node), and extensions of a stored key past its leaf.
func TestAbsentKeyShapes(t *testing.T) {
	r := rand.New(rand.NewSource(161))
	for _, n := range []int{1, 3, 400} {
		seq := encodeSeq(workload.URLLog(n, 13, workload.DefaultURLConfig()))
		st := core.NewStaticFromBits(seq)
		fz := Freeze(st)
		for i := 0; i < len(seq); i += 1 + len(seq)/12 {
			s := seq[i]
			checkKeyAgainstStatic(t, r, fz, st, s, "stored")
			for at := 0; at < s.Len(); at++ {
				flipped := bitstr.Concat(s.Prefix(at).AppendBit(s.Bit(at)^1), s.Suffix(at+1))
				checkKeyAgainstStatic(t, r, fz, st, flipped, "flipped bit")
				checkKeyAgainstStatic(t, r, fz, st, s.Prefix(at), "proper prefix")
			}
			for _, tail := range []string{"0", "1", "0110", "111111111"} {
				checkKeyAgainstStatic(t, r, fz, st, bitstr.Concat(s, bitstr.MustParse(tail)), "extension")
			}
		}
		checkKeyAgainstStatic(t, r, fz, st, bitstr.Empty, "empty")
	}
	// The paper's Figure 2 trie, where each shape can be named: root
	// label "0", then the branch bit, "0100" is a leaf reached by branch 1.
	raw := []string{"0001", "0011", "0100", "00100", "0100", "00100", "0100"}
	seq := make([]bitstr.BitString, len(raw))
	for i, s := range raw {
		seq[i] = bitstr.MustParse(s)
	}
	st := core.NewStaticFromBits(seq)
	fz := Freeze(st)
	for why, key := range map[string]string{
		"diverges inside the root label":     "1",
		"diverges at a branch bit to a leaf": "0101",
		"diverges inside a leaf label":       "0110",
		"proper prefix ending at a node":     "00",
		"proper prefix ending in a label":    "010",
		"extends a stored key":               "01000",
		"stored":                             "00100",
	} {
		checkKeyAgainstStatic(t, r, fz, st, bitstr.MustParse(key), why)
	}
}

func TestFigure2Frozen(t *testing.T) {
	raw := []string{"0001", "0011", "0100", "00100", "0100", "00100", "0100"}
	seq := make([]bitstr.BitString, len(raw))
	for i, s := range raw {
		seq[i] = bitstr.MustParse(s)
	}
	fz := Freeze(core.NewStaticFromBits(seq))
	for i, s := range raw {
		if got := fz.AccessBits(i).String(); got != s {
			t.Fatalf("Access(%d) = %q want %q", i, got, s)
		}
	}
	if fz.AlphabetSize() != 4 {
		t.Fatalf("AlphabetSize=%d", fz.AlphabetSize())
	}
	// Label bitvector L in DFS order: 0, ε, 1, ε, 0, ε, 00 → "0" "1" "0" "00".
	if got := fz.labels.String(); got != "01000" {
		t.Fatalf("concatenated labels L = %q want %q", got, "01000")
	}
}

func TestNoPointerOverhead(t *testing.T) {
	// The succinct encoding must beat the pointer representation by a wide
	// margin on alphabets with many distinct strings, where per-node
	// pointers dominate.
	seq := workload.URLLog(1<<14, 10, workload.DefaultURLConfig())
	st := core.NewStaticFromBits(encodeSeq(seq))
	fz := Freeze(st)
	if fz.SizeBits() >= st.SizeBits()/2 {
		t.Fatalf("succinct %d bits vs pointer %d bits: expected >2x saving",
			fz.SizeBits(), st.SizeBits())
	}
	// And it must sit within a reasonable factor of the lower bound:
	// LB + o(h~n) with practical-RRR constants (0.371 h~n here, since the
	// shape takes one bit a node and no cumulative-ones directory is kept).
	lb := entropy.LB(seq)
	hn := float64(st.TotalBitvectorBits())
	if got := float64(fz.SizeBits()); got > lb+0.40*hn+64 {
		t.Fatalf("succinct %d bits vs LB %.0f + h~n %.0f", fz.SizeBits(), lb, hn)
	}
}

// TestTrieBitsPerElem is the space guard of the trie format: on the
// benchmark ladder's own data (65 536 URL-log values, seed 1) the
// marshalled trie and the in-memory one stay under what format v4 made
// them (17.123 and 18.620 bits an element; v3: 19.125 and 21.035), with no
// component beyond the five the format has.
func TestTrieBitsPerElem(t *testing.T) {
	const n = 1 << 16
	fz := buildTwoPass(t, encodeSeq(workload.URLLog(n, 1, workload.DefaultURLConfig())))
	disk := float64(len(marshalOf(t, fz))*8) / n
	mem := float64(fz.SizeBits()) / n
	t.Logf("marshalled %.3f bits/elem, SizeBits %.3f bits/elem", disk, mem)
	if disk > 17.2 {
		t.Errorf("marshalled trie takes %.3f bits/elem, want at most 17.2", disk)
	}
	if mem > 18.7 {
		t.Errorf("SizeBits is %.3f bits/elem, want at most 18.7", mem)
	}
	comp := fz.ComponentBits()
	sum := 0
	for _, v := range comp {
		sum += v
	}
	if _, ok := comp["internalRank"]; ok || len(comp) != 5 || sum != fz.SizeBits() {
		t.Errorf("components %v: want the five of format v4, summing to SizeBits %d", comp, fz.SizeBits())
	}
	if comp["bvDirs"] != fz.bvOffsets.SizeBits() {
		t.Errorf("bvDirs is %d bits, the one segment directory %d", comp["bvDirs"], fz.bvOffsets.SizeBits())
	}
}

func TestComponentBreakdown(t *testing.T) {
	seq := workload.URLLog(4096, 11, workload.DefaultURLConfig())
	fz := Freeze(core.NewStaticFromBits(encodeSeq(seq)))
	comp := fz.ComponentBits()
	sum := 0
	for _, v := range comp {
		if v < 0 {
			t.Fatalf("negative component: %v", comp)
		}
		sum += v
	}
	if sum != fz.SizeBits() {
		t.Fatalf("components sum %d != SizeBits %d", sum, fz.SizeBits())
	}
	// Every structure held in memory is counted, each with its derived
	// directories (rank samples, select hints, excess index).
	parts := fz.tree.SizeBits() + fz.labels.Len() + fz.labelDir.SizeBits() +
		fz.bits.SizeBits() + fz.bvOffsets.SizeBits()
	if parts != fz.SizeBits() {
		t.Fatalf("SizeBits %d does not cover every part (%d)", fz.SizeBits(), parts)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	empty := Freeze(core.NewStaticFromBits(nil))
	if empty.Len() != 0 || empty.AlphabetSize() != 0 {
		t.Fatal("empty freeze")
	}
	if empty.RankBits(bitstr.EncodeString("x"), 0) != 0 {
		t.Fatal("rank on empty")
	}
	one := Freeze(core.NewStaticFromBits(encodeSeq([]string{"solo", "solo"})))
	if one.Len() != 2 || one.AlphabetSize() != 1 {
		t.Fatal("singleton freeze")
	}
	if got, _ := bitstr.DecodeString(one.AccessBits(1)); got != "solo" {
		t.Fatal("singleton access")
	}
	if pos, ok := one.SelectBits(bitstr.EncodeString("solo"), 1); !ok || pos != 1 {
		t.Fatal("singleton select")
	}
}

func BenchmarkFrozenAccess(b *testing.B) {
	seq := workload.URLLog(1<<16, 12, workload.DefaultURLConfig())
	fz := Freeze(core.NewStaticFromBits(encodeSeq(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz.AccessBits(i & (1<<16 - 1))
	}
}
