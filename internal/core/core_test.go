package core

import (
	"math/rand"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/seqstore/flat"
)

// figure2Sequence is the paper's running example (Figure 2):
// ⟨0001, 0011, 0100, 00100, 0100, 00100, 0100⟩.
func figure2Sequence() []bitstr.BitString {
	raw := []string{"0001", "0011", "0100", "00100", "0100", "00100", "0100"}
	out := make([]bitstr.BitString, len(raw))
	for i, s := range raw {
		out[i] = bitstr.MustParse(s)
	}
	return out
}

// wantFigure2 is the exact structure of Figure 2, derived from
// Definition 3.1: labels α and bitvectors β per node.
func wantFigure2() *DumpNode {
	return &DumpNode{
		Label: "0", Bits: "0010101",
		Kids: []*DumpNode{
			{
				Label: "", Bits: "0111",
				Kids: []*DumpNode{
					{Label: "1"},
					{
						Label: "", Bits: "100",
						Kids: []*DumpNode{
							{Label: "0"},
							{Label: ""},
						},
					},
				},
			},
			{Label: "00"},
		},
	}
}

func dumpEqual(a, b *DumpNode) bool {
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
		if !dumpEqual(a.Kids[i], b.Kids[i]) {
			return false
		}
	}
	return true
}

func TestFigure2AppendOnly(t *testing.T) {
	a := NewAppendOnlyFromBits(figure2Sequence())
	if got, want := a.Dump(), wantFigure2(); !dumpEqual(got, want) {
		t.Fatalf("append-only Wavelet Trie does not match Figure 2:\ngot %+v", got)
	}
}

func TestFigure2Dynamic(t *testing.T) {
	d := NewDynamicFromBits(figure2Sequence())
	if got, want := d.Dump(), wantFigure2(); !dumpEqual(got, want) {
		t.Fatalf("dynamic Wavelet Trie does not match Figure 2:\ngot %+v", got)
	}
}

func TestFigure2Queries(t *testing.T) {
	// Exercise the exact queries the figure supports, on all variants.
	seq := figure2Sequence()
	variants := map[string]interface {
		AccessBits(int) bitstr.BitString
		RankBits(bitstr.BitString, int) int
		SelectBits(bitstr.BitString, int) (int, bool)
		RankPrefixBits(bitstr.BitString, int) int
		SelectPrefixBits(bitstr.BitString, int) (int, bool)
	}{
		"appendonly": NewAppendOnlyFromBits(seq),
		"dynamic":    NewDynamicFromBits(seq),
	}
	for name, w := range variants {
		for i, s := range seq {
			if got := w.AccessBits(i); bitstr.Compare(got, s) != 0 {
				t.Fatalf("%s: Access(%d) = %s want %s", name, i, got.String(), s.String())
			}
		}
		// Rank of 0100 (occurs at positions 2, 4, 6).
		if got := w.RankBits(bitstr.MustParse("0100"), 7); got != 3 {
			t.Fatalf("%s: Rank(0100, 7) = %d want 3", name, got)
		}
		if got := w.RankBits(bitstr.MustParse("0100"), 3); got != 1 {
			t.Fatalf("%s: Rank(0100, 3) = %d want 1", name, got)
		}
		if pos, ok := w.SelectBits(bitstr.MustParse("00100"), 1); !ok || pos != 5 {
			t.Fatalf("%s: Select(00100, 1) = %d,%v want 5,true", name, pos, ok)
		}
		if _, ok := w.SelectBits(bitstr.MustParse("0100"), 3); ok {
			t.Fatalf("%s: Select(0100, 3) should fail", name)
		}
		if _, ok := w.SelectBits(bitstr.MustParse("1111"), 0); ok {
			t.Fatalf("%s: Select of absent string should fail", name)
		}
		// Prefix "00" covers 0001, 0011, 00100 ×2 → 4 occurrences.
		if got := w.RankPrefixBits(bitstr.MustParse("00"), 7); got != 4 {
			t.Fatalf("%s: RankPrefix(00, 7) = %d want 4", name, got)
		}
		// Prefix "0" covers everything.
		if got := w.RankPrefixBits(bitstr.MustParse("0"), 7); got != 7 {
			t.Fatalf("%s: RankPrefix(0, 7) = %d want 7", name, got)
		}
		// Third element with prefix "00" is position 3 (00100).
		if pos, ok := w.SelectPrefixBits(bitstr.MustParse("00"), 2); !ok || pos != 3 {
			t.Fatalf("%s: SelectPrefix(00, 2) = %d,%v want 3,true", name, pos, ok)
		}
		if _, ok := w.SelectPrefixBits(bitstr.MustParse("00"), 4); ok {
			t.Fatalf("%s: SelectPrefix(00, 4) should fail", name)
		}
	}
}

func TestFigure3SplitOnInsert(t *testing.T) {
	// The Figure 3 scenario: inserting a string that diverges inside an
	// existing node label splits the node; the fresh internal node gets a
	// constant bitvector (Init) as long as the split-off subsequence.
	d := NewDynamic()
	for i := 0; i < 4; i++ {
		d.AppendBits(bitstr.MustParse("11000"))
		d.AppendBits(bitstr.MustParse("11001"))
	}
	before := d.Dump()
	if before.Label != "1100" {
		t.Fatalf("precondition: root label %q", before.Label)
	}
	// Insert "111" at position 3: splits the root at label offset 2.
	d.InsertBits(bitstr.MustParse("111"), 3)
	got := d.Dump()
	// New root: label "11", bitvector = the Init run of eight 0s (the old
	// subsequence) with the new element's 1 inserted at position 3; the
	// split-off node keeps its label remainder "0" and untouched subtree.
	want := &DumpNode{
		Label: "11", Bits: "000100000",
		Kids: []*DumpNode{
			{Label: "0", Bits: before.Bits, Kids: before.Kids},
			{Label: ""},
		},
	}
	if !dumpEqual(got, want) {
		t.Fatalf("after Figure-3 insert:\ngot  %+v\nwant %+v", got, want)
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
	if d.AlphabetSize() != 3 || d.Len() != 9 {
		t.Fatalf("alphabet %d len %d", d.AlphabetSize(), d.Len())
	}
	if v := d.AccessBits(3); v.String() != "111" {
		t.Fatalf("Access(3) = %s", v.String())
	}
}

// encodeSeq converts byte strings to the prefix-free bit alphabet.
func encodeSeq(seq []string) []bitstr.BitString {
	out := make([]bitstr.BitString, len(seq))
	for i, s := range seq {
		out[i] = bitstr.EncodeString(s)
	}
	return out
}

// randomWorkload draws words with heavy reuse and shared prefixes.
func randomWorkload(r *rand.Rand, n int) []string {
	hosts := []string{"a.com", "b.org", "a.com/x", "cdn.a.com"}
	var pool []string
	for len(pool) < 30 {
		h := hosts[r.Intn(len(hosts))]
		depth := r.Intn(3)
		s := h
		for d := 0; d < depth; d++ {
			s += "/" + string(rune('a'+r.Intn(4)))
		}
		pool = append(pool, s)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[r.Intn(len(pool))]
	}
	return out
}

// queryAPI is the query surface shared by all variants.
type queryAPI interface {
	Len() int
	AccessBits(int) bitstr.BitString
	RankBits(bitstr.BitString, int) int
	SelectBits(bitstr.BitString, int) (int, bool)
	RankPrefixBits(bitstr.BitString, int) int
	SelectPrefixBits(bitstr.BitString, int) (int, bool)
}

// compareWithOracle checks the full query surface against the flat store.
func compareWithOracle(t *testing.T, w queryAPI, o *flat.Store, probes []string, r *rand.Rand, tag string) {
	t.Helper()
	n := o.Len()
	if w.Len() != n {
		t.Fatalf("%s: Len=%d want %d", tag, w.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, err := bitstr.DecodeString(w.AccessBits(i))
		if err != nil {
			t.Fatalf("%s: Access(%d) undecodable: %v", tag, i, err)
		}
		if want := o.Access(i); got != want {
			t.Fatalf("%s: Access(%d) = %q want %q", tag, i, got, want)
		}
	}
	for _, p := range probes {
		enc := bitstr.EncodeString(p)
		encP := bitstr.EncodePrefixString(p)
		for trial := 0; trial < 8; trial++ {
			pos := r.Intn(n + 1)
			if got, want := w.RankBits(enc, pos), o.Rank(p, pos); got != want {
				t.Fatalf("%s: Rank(%q,%d) = %d want %d", tag, p, pos, got, want)
			}
			if got, want := w.RankPrefixBits(encP, pos), o.RankPrefix(p, pos); got != want {
				t.Fatalf("%s: RankPrefix(%q,%d) = %d want %d", tag, p, pos, got, want)
			}
		}
		total := o.Rank(p, n)
		for idx := 0; idx <= total; idx++ {
			gotPos, gotOK := w.SelectBits(enc, idx)
			wantPos, wantOK := o.Select(p, idx)
			if gotOK != wantOK || (gotOK && gotPos != wantPos) {
				t.Fatalf("%s: Select(%q,%d) = (%d,%v) want (%d,%v)", tag, p, idx, gotPos, gotOK, wantPos, wantOK)
			}
		}
		totalP := o.RankPrefix(p, n)
		for idx := 0; idx <= totalP; idx += 1 + totalP/7 {
			gotPos, gotOK := w.SelectPrefixBits(encP, idx)
			wantPos, wantOK := o.SelectPrefix(p, idx)
			if gotOK != wantOK || (gotOK && gotPos != wantPos) {
				t.Fatalf("%s: SelectPrefix(%q,%d) = (%d,%v) want (%d,%v)", tag, p, idx, gotPos, gotOK, wantPos, wantOK)
			}
		}
	}
}

func workloadProbes(seq []string) []string {
	probes := []string{"", "a", "a.com", "a.com/x", "b.org", "zzz", "cdn."}
	seen := map[string]bool{}
	for _, s := range seq {
		if !seen[s] && len(seen) < 12 {
			seen[s] = true
			probes = append(probes, s)
		}
	}
	return probes
}

func TestAppendOnlyAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	seq := randomWorkload(r, 500)
	a := NewAppendOnly()
	o := flat.New()
	for i, s := range seq {
		a.AppendBits(bitstr.EncodeString(s))
		o.Append(s)
		if i%97 == 0 {
			if err := a.checkConsistency(); err != nil {
				t.Fatalf("after %d appends: %v", i+1, err)
			}
		}
	}
	compareWithOracle(t, a, o, workloadProbes(seq), r, "appendonly")
}

func TestDynamicAppendAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	seq := randomWorkload(r, 400)
	d := NewDynamic()
	o := flat.New()
	for _, s := range seq {
		d.AppendBits(bitstr.EncodeString(s))
		o.Append(s)
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, o, workloadProbes(seq), r, "dynamic-append")
}

func TestDynamicChurnAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	d := NewDynamic()
	o := flat.New()
	words := randomWorkload(r, 60) // word pool
	for step := 0; step < 3000; step++ {
		switch op := r.Intn(10); {
		case op < 5 || o.Len() == 0: // insert
			s := words[r.Intn(len(words))]
			pos := r.Intn(o.Len() + 1)
			d.InsertBits(bitstr.EncodeString(s), pos)
			o.Insert(s, pos)
		case op < 8: // delete
			pos := r.Intn(o.Len())
			want := o.Delete(pos)
			got, err := bitstr.DecodeString(d.DeleteAt(pos))
			if err != nil {
				t.Fatalf("step %d: undecodable delete result: %v", step, err)
			}
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %q want %q", step, pos, got, want)
			}
		default: // append
			s := words[r.Intn(len(words))]
			d.AppendBits(bitstr.EncodeString(s))
			o.Append(s)
		}
		if step%251 == 0 {
			if err := d.checkConsistency(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
	compareWithOracle(t, d, o, workloadProbes(words), r, "dynamic-churn")
}

func TestDynamicAlphabetShrinks(t *testing.T) {
	d := NewDynamic()
	words := []string{"alpha", "beta", "gamma", "alpha", "beta", "alpha"}
	for _, w := range words {
		d.AppendBits(bitstr.EncodeString(w))
	}
	if d.AlphabetSize() != 3 {
		t.Fatalf("alphabet %d", d.AlphabetSize())
	}
	// Delete the single gamma (position 2): alphabet must shrink.
	got, _ := bitstr.DecodeString(d.DeleteAt(2))
	if got != "gamma" {
		t.Fatalf("deleted %q", got)
	}
	if d.AlphabetSize() != 2 {
		t.Fatalf("alphabet after delete %d want 2", d.AlphabetSize())
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
	// gamma must now be unknown.
	if c := d.RankBits(bitstr.EncodeString("gamma"), d.Len()); c != 0 {
		t.Fatalf("gamma count %d", c)
	}
	// Delete one beta (still one left): alphabet unchanged.
	pos, ok := d.SelectBits(bitstr.EncodeString("beta"), 0)
	if !ok {
		t.Fatal("beta vanished")
	}
	d.DeleteAt(pos)
	if d.AlphabetSize() != 2 {
		t.Fatalf("alphabet %d want 2", d.AlphabetSize())
	}
	// Drain completely.
	for d.Len() > 0 {
		d.DeleteAt(d.Len() - 1)
	}
	if d.AlphabetSize() != 0 || d.Len() != 0 {
		t.Fatalf("not empty: alphabet %d len %d", d.AlphabetSize(), d.Len())
	}
	// And grow again from empty.
	d.AppendBits(bitstr.EncodeString("re"))
	d.AppendBits(bitstr.EncodeString("born"))
	if d.Len() != 2 || d.AlphabetSize() != 2 {
		t.Fatal("rebirth failed")
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleStringSequence(t *testing.T) {
	// A constant sequence: the trie is a single leaf, no bitvectors.
	seq := []string{"only", "only", "only"}
	for _, w := range []queryAPI{
		NewAppendOnlyFromBits(encodeSeq(seq)),
		NewDynamicFromBits(encodeSeq(seq)),
	} {
		if w.Len() != 3 {
			t.Fatalf("Len=%d", w.Len())
		}
		s := bitstr.EncodeString("only")
		if got, _ := bitstr.DecodeString(w.AccessBits(1)); got != "only" {
			t.Fatalf("Access = %q", got)
		}
		if w.RankBits(s, 2) != 2 {
			t.Fatal("Rank")
		}
		if pos, ok := w.SelectBits(s, 2); !ok || pos != 2 {
			t.Fatal("Select")
		}
		if pos, ok := w.SelectPrefixBits(bitstr.EncodePrefixString("on"), 1); !ok || pos != 1 {
			t.Fatal("SelectPrefix")
		}
		if w.RankBits(bitstr.EncodeString("other"), 3) != 0 {
			t.Fatal("Rank of absent string")
		}
	}
}

func TestEmptyTrieBehaviour(t *testing.T) {
	d := NewDynamic()
	if d.Len() != 0 || d.AlphabetSize() != 0 {
		t.Fatal("not empty")
	}
	if d.RankBits(bitstr.EncodeString("x"), 0) != 0 {
		t.Fatal("rank on empty")
	}
	if _, ok := d.SelectBits(bitstr.EncodeString("x"), 0); ok {
		t.Fatal("select on empty")
	}
	if err := d.checkConsistency(); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Access on empty must panic")
			}
		}()
		d.AccessBits(0)
	}()
}

func TestEmptyStringElement(t *testing.T) {
	// The empty byte string is a valid element (it encodes to "0").
	seq := []string{"", "a", "", "b"}
	d := NewDynamicFromBits(encodeSeq(seq))
	if got, _ := bitstr.DecodeString(d.AccessBits(2)); got != "" {
		t.Fatalf("Access(2) = %q", got)
	}
	if d.RankBits(bitstr.EncodeString(""), 4) != 2 {
		t.Fatal("rank of empty string")
	}
}

func TestAvgHeightAndTotals(t *testing.T) {
	seq := figure2Sequence()
	st := NewAppendOnlyFromBits(seq)
	// Per-element internal-node path lengths: 0001→2(root,ε)... derived
	// from Figure 2: h(0001)=2, h(0011)=3, h(0100)=1, h(00100)=3.
	// Σ over sequence = 2+3+1+3+1+3+1 = 14; h̃ = 14/7 = 2.
	if got := st.TotalBitvectorBits(); got != 14 {
		t.Fatalf("TotalBitvectorBits=%d want 14", got)
	}
	if got := st.AvgHeight(); got != 2 {
		t.Fatalf("AvgHeight=%v want 2", got)
	}
	if got := st.Height(); got != 3 {
		t.Fatalf("Height=%d want 3", got)
	}
	if st.AlphabetSize() != 4 {
		t.Fatalf("AlphabetSize=%d", st.AlphabetSize())
	}
}

// NewAppendOnlyFromBits builds an AppendOnly over the given sequence.
func NewAppendOnlyFromBits(seq []bitstr.BitString) *AppendOnly {
	a := NewAppendOnly()
	for _, s := range seq {
		a.AppendBits(s)
	}
	return a
}

// NewDynamicFromBits builds a Dynamic holding the given sequence by
// repeated appends.
func NewDynamicFromBits(seq []bitstr.BitString) *Dynamic {
	d := NewDynamic()
	for _, s := range seq {
		d.AppendBits(s)
	}
	return d
}
