package succinct

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/eliasfano"
)

// buildTwoPass is the reference every merge is held to: the two-pass
// Builder over the whole sequence.
func buildTwoPass(t testing.TB, seq []bitstr.BitString) *Trie {
	t.Helper()
	b := NewBuilder()
	for _, s := range seq {
		b.AddValueBits(s)
	}
	for _, s := range seq {
		if err := b.AppendBits(s); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkMerge cuts seq at cuts (ascending positions), freezes every part —
// the two-pass way, and again through an append-only trie — merges them
// and requires the marshalled bytes of the two-pass Builder over all of
// seq. The union count over the same parts — frozen, append-only, and the
// two kinds mixed — must be the merged trie's leaf count and the size of
// seq as a set.
func checkMerge(t testing.TB, seq []bitstr.BitString, cuts []int, why string) {
	t.Helper()
	want := marshalOf(t, buildTwoPass(t, seq))
	set := map[string]bool{}
	for _, s := range seq {
		set[s.String()] = true
	}
	var parts, frozenInPlace []*Trie
	var live []*core.AppendOnly
	bounds := append(append([]int{0}, cuts...), len(seq))
	for i := 0; i+1 < len(bounds); i++ {
		part := seq[bounds[i]:bounds[i+1]]
		parts = append(parts, buildTwoPass(t, part))
		live = append(live, appendOnlyOf(part))
		fz, err := FreezeAppendOnly(live[i])
		if err != nil {
			t.Fatalf("%s: freezing part %d in place: %v", why, i, err)
		}
		if !bytes.Equal(marshalOf(t, fz), marshalOf(t, parts[i])) {
			t.Fatalf("%s: part %d frozen in place differs from the two-pass build", why, i)
		}
		frozenInPlace = append(frozenInPlace, fz)
	}
	for _, ps := range [][]*Trie{parts, frozenInPlace} {
		got, err := Merge(nil, ps...)
		if err != nil {
			t.Fatalf("%s: merge of %d parts (cuts %v): %v", why, len(ps), cuts, err)
		}
		if !bytes.Equal(marshalOf(t, got), want) {
			t.Fatalf("%s: merge of %d parts (cuts %v) differs from the two-pass build", why, len(ps), cuts)
		}
		if got.AlphabetSize() != len(set) {
			t.Fatalf("%s: merged trie has %d leaves, the sequence %d distinct strings", why, got.AlphabetSize(), len(set))
		}
	}
	var evenFrozen []*Trie
	var oddLive []*core.AppendOnly
	for i := range parts {
		if i%2 == 0 {
			evenFrozen = append(evenFrozen, parts[i])
		} else {
			oddLive = append(oddLive, live[i])
		}
	}
	for _, u := range []struct {
		how    string
		frozen []*Trie
		live   []*core.AppendOnly
	}{
		{"frozen", parts, nil},
		{"append-only", nil, live},
		{"mixed", evenFrozen, oddLive},
		{"every part twice", parts, live},
	} {
		got, err := UnionAlphabetSize(u.frozen, u.live)
		if err != nil {
			t.Fatalf("%s: union count over %s parts (cuts %v): %v", why, u.how, cuts, err)
		}
		if got != len(set) {
			t.Fatalf("%s: union count over %s parts (cuts %v) = %d, want %d", why, u.how, cuts, got, len(set))
		}
	}
}

// appendOnlyOf builds a live append-only trie over seq.
func appendOnlyOf(seq []bitstr.BitString) *core.AppendOnly {
	a := core.NewAppendOnly()
	for _, s := range seq {
		a.AppendBits(s)
	}
	return a
}

func bitsOf(patterns ...string) []bitstr.BitString {
	out := make([]bitstr.BitString, len(patterns))
	for i, p := range patterns {
		out[i] = bitstr.MustParse(p)
	}
	return out
}

// TestMergeBitIdentical is the merge's contract: whatever the parts, the
// merged trie marshals to the bytes of the two-pass Builder over the
// concatenation.
func TestMergeBitIdentical(t *testing.T) {
	long := strings.Repeat("shared-head-well-past-one-word/", 3) // 93 bytes: labels of several words
	fixed := []struct {
		why  string
		seq  []string
		cuts []int
	}{
		{"identity (k = 1)", []string{"b", "a", "b", "c", "a", "a"}, nil},
		{"disjoint alphabets", []string{"a", "b", "a", "x", "y", "y", "x"}, []int{3}},
		{"identical alphabets", []string{"a", "b", "c", "c", "b", "a", "a", "b", "c"}, []int{3, 6}},
		{"one-value parts: leaf-only sources contribute only runs", []string{"a", "a", "a", "b", "b", "c"}, []int{3, 5}},
		{"one-element parts", []string{"q", "p", "q", "r"}, []int{1, 2, 3}},
		{"empty parts", []string{"a", "b", "a"}, []int{0, 0, 2, 2, 3}},
		{"one value overall", []string{"same", "same", "same"}, []int{1}},
		{"the empty string", []string{"", "a", "", "", "b", ""}, []int{2, 4}},
		{"only the empty string", []string{"", "", ""}, []int{2}},
		{"byte prefixes of one another", []string{"a", "ab", "abc", "ab", "a", "abcd", "abc"}, []int{2, 5}},
		{"labels over 64 bits that straddle words", []string{long + "x", long + "y", long, long + "x/1", long + "y", long + "x"}, []int{2, 4}},
		{"a label split where a later part branches", []string{long + "tail-a", long + "tail-a", long + "tail-b", long[:40] + "!"}, []int{2, 3}},
		{"a value present only in the last part", []string{"a", "b", "a", "b", "a", "b", "zz"}, []int{2, 4, 6}},
	}
	for _, c := range fixed {
		checkMerge(t, encodeSeq(c.seq), c.cuts, c.why)
	}
	// Raw bit strings reach shapes the byte binarization cannot: a root
	// with an empty label, one-bit strings.
	checkMerge(t, bitsOf("0", "1", "1", "0"), []int{1, 3}, "one-bit strings")
	checkMerge(t, bitsOf("00", "01", "1", "01", "00"), []int{2}, "empty root label")

	r := rand.New(rand.NewSource(171))
	for trial := 0; trial < 300; trial++ {
		seq := randomSeq(r)
		k := 1 + r.Intn(8)
		cuts := make([]int, k-1)
		for i := range cuts {
			cuts[i] = r.Intn(len(seq) + 1)
		}
		sortInts(cuts)
		checkMerge(t, seq, cuts, fmt.Sprintf("random trial %d", trial))
	}
}

// randomSeq draws a sequence over a small pool of strings that share
// heads of every length, some long enough for multi-word labels.
func randomSeq(r *rand.Rand) []bitstr.BitString {
	heads := []string{"", "h", "host", "host0.example/", strings.Repeat("p", 1+r.Intn(40))}
	pool := make([]bitstr.BitString, 1+r.Intn(24))
	for i := range pool {
		s := heads[r.Intn(len(heads))] + heads[r.Intn(len(heads))]
		for j := r.Intn(4); j > 0; j-- {
			s += string(rune('a' + r.Intn(3)))
		}
		pool[i] = bitstr.EncodeString(s)
	}
	seq := make([]bitstr.BitString, 1+r.Intn(200))
	for i := range seq {
		// Squaring skews the draw: some values are hot, some appear once.
		seq[i] = pool[r.Intn(len(pool))*r.Intn(len(pool))/len(pool)]
	}
	return seq
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestMergeLargeSegments crosses what the small cases cannot: β segments
// longer than a poll interval, an append-only source whose vectors have an
// Init run, sealed segments and a partial tail, and the cancel poll.
func TestMergeLargeSegments(t *testing.T) {
	r := rand.New(rand.NewSource(172))
	vals := encodeSeq([]string{"a", "b", "c/1", "c/2", "d"})
	seq := make([]bitstr.BitString, 0, 3*pollBits)
	for i := 0; i < 100; i++ {
		seq = append(seq, vals[0]) // the root's vector starts with an Init run of 100
	}
	for len(seq) < cap(seq) {
		seq = append(seq, vals[r.Intn(len(vals))])
	}
	checkMerge(t, seq, []int{pollBits + 17, 2 * pollBits}, "large")

	part := buildTwoPass(t, seq)
	polls := 0
	_, err := Merge(func() bool { polls++; return polls < 3 }, part, part)
	if err != errCanceled {
		t.Fatalf("merge with a cont that gives up returned %v, want errCanceled", err)
	}
	if polls != 3 {
		t.Fatalf("cont polled %d times after it said stop", polls)
	}
}

// TestMergeRejectsBadSources hands Merge sources it must refuse with an
// error — never a panic, never a wrong trie: unions that are not
// prefix-free, and tries whose bits, directories and counts disagree.
func TestMergeRejectsBadSources(t *testing.T) {
	mustFail := func(why string, tries ...*Trie) {
		t.Helper()
		if got, err := Merge(nil, tries...); err == nil {
			t.Fatalf("%s: merged into a trie of %d elements, want an error", why, got.Len())
		}
	}
	one := func(patterns ...string) *Trie { return buildTwoPass(t, bitsOf(patterns...)) }

	// Each part is prefix-free on its own; the union is not — which the
	// label-only count meets exactly where the merge does, whichever kind
	// of source holds the parts.
	notPrefixFree := func(why string, a, b []string) {
		t.Helper()
		mustFail(why, one(a...), one(b...))
		la, lb := appendOnlyOf(bitsOf(a...)), appendOnlyOf(bitsOf(b...))
		for how, count := range map[string]func() (int, error){
			"frozen":      func() (int, error) { return UnionAlphabetSize([]*Trie{one(a...), one(b...)}, nil) },
			"append-only": func() (int, error) { return UnionAlphabetSize(nil, []*core.AppendOnly{la, lb}) },
			"mixed":       func() (int, error) { return UnionAlphabetSize([]*Trie{one(b...)}, []*core.AppendOnly{la}) },
		} {
			if n, err := count(); err == nil {
				t.Fatalf("%s: union count over %s sources = %d, want an error", why, how, n)
			}
		}
	}
	notPrefixFree("a leaf ends inside another part's leaf label", []string{"0"}, []string{"01"})
	notPrefixFree("the same, in the other order", []string{"01"}, []string{"0"})
	notPrefixFree("a leaf ends where another part branches", []string{"0"}, []string{"00", "01"})
	notPrefixFree("a leaf ends inside another part's internal label", []string{"1"}, []string{"110", "111"})
	notPrefixFree("a leaf ends below a branch of another part", []string{"10", "11"}, []string{"101"})

	good := func() *Trie { return one("00", "01", "1", "01", "00", "1", "1") }
	if _, err := Merge(nil, good()); err != nil {
		t.Fatalf("the uncorrupted trie does not merge: %v", err)
	}
	tr := good()
	tr.n++
	mustFail("root segment shorter than the element count", tr)
	tr = good()
	tr.n--
	mustFail("root segment longer than the element count", tr)
	tr = good()
	tr.bvOffsets = eliasfano.FromSorted([]uint64{1, 7, 11}, 12)
	mustFail("segments do not start where the stream does", tr)

	// Hand-assembled: shapes the Builder refuses to make.
	a := newAssembler(0, 0, 0)
	a.internal(nil, 0, 0)
	a.bits.AppendRun(0, 3) // every element goes left: the 1-child is empty
	a.leaf(nil, 0, 0)
	a.leaf(nil, 0, 0)
	mustFail("a leaf with no occurrence", a.finish(3))

	a = newAssembler(0, 0, 0)
	a.internal(nil, 0, 0)
	a.bits.AppendRun(0, 1)
	a.bits.AppendRun(1, 1)
	a.internal(nil, 0, 0) // the 0-child claims 4 bits for its 1 element
	a.bits.AppendRun(0, 2)
	a.bits.AppendRun(1, 2)
	a.leaf(nil, 0, 0)
	a.leaf(nil, 0, 0)
	a.leaf(nil, 0, 0)
	mustFail("a child segment longer than its subsequence", a.finish(2))

	a = newAssembler(0, 0, 0)
	a.internal(nil, 0, 0)
	a.bits.AppendRun(0, 1)
	a.bits.AppendRun(1, 1)
	a.leaf(nil, 0, 0) // the 1-child is missing
	short := a.finish(2)
	mustFail("fewer nodes than the shape needs", short)
	// The one damage a label-only walk can meet: the count needs two
	// sources to walk at all, and then runs out of nodes like the merge.
	if n, err := UnionAlphabetSize([]*Trie{short, one("0", "1")}, nil); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Fatalf("union count over a trie missing a node = %d, %v; want it to run past the nodes", n, err)
	}
}

// FuzzMerge derives a sequence and its cut points from the input and holds
// the merge to the two-pass Builder's bytes.
func FuzzMerge(f *testing.F) {
	f.Add([]byte("a\nab\nabc\n\nab\nb"), uint64(0x21))
	f.Add([]byte("host0/x/1\nhost0/x/2\nhost1/y\nhost0/x/1"), uint64(0x1234))
	f.Add([]byte("\n\n\n"), uint64(7))
	f.Add([]byte(strings.Repeat("long-value-", 30)+"\nshort\n"+strings.Repeat("long-value-", 30)+"!"), uint64(0x111))
	f.Fuzz(func(t *testing.T, data []byte, cutBits uint64) {
		if len(data) > 1<<12 {
			return
		}
		vals := strings.Split(string(data), "\n")
		if len(vals) > 64 {
			vals = vals[:64]
		}
		// cutBits says after which elements a part ends; at most 8 parts.
		var cuts []int
		for i := 1; i < len(vals) && len(cuts) < 7; i++ {
			if cutBits>>uint(i-1)&1 == 1 {
				cuts = append(cuts, i)
			}
		}
		checkMerge(t, encodeSeq(vals), cuts, "fuzz")
	})
}
