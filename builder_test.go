package wavelettrie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// buildViaBuilder freezes seq through FrozenBuilder, as the benchmark
// ladder's freeze rung does.
func buildViaBuilder(t *testing.T, seq []string) *Frozen {
	t.Helper()
	a := NewAppendOnlyFrom(seq)
	fb := NewFrozenBuilder()
	a.FeedValues(fb)
	if err := a.FeedRange(fb, 0, a.Len(), nil); err != nil {
		t.Fatal(err)
	}
	f, err := fb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

// checkBitIdentical holds the builder's freeze of seq — the structural
// freeze of the whole trie — to ConcatFrozen of seq's thirds, the merge a
// compaction runs: the two constructions must give the same bytes, and
// the trie must hand back seq. (internal/succinct holds both to the §3
// definition itself.)
func checkBitIdentical(t *testing.T, seq []string) {
	t.Helper()
	f := buildViaBuilder(t, seq)
	got, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	third := len(seq) / 3
	merged, err := ConcatFrozen(nil, NewStatic(seq[:third]), NewStatic(seq[third:2*third]), NewStatic(seq[2*third:]))
	if err != nil {
		t.Fatal(err)
	}
	want, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("builder output differs from the merge of its thirds (%d vs %d bytes, n=%d)",
			len(got), len(want), len(seq))
	}
	for i, s := range seq {
		if v := f.Access(i); v != s {
			t.Fatalf("Access(%d) = %q, want %q", i, v, s)
		}
	}
}

func TestBuilderBitIdenticalAdversarial(t *testing.T) {
	cases := map[string][]string{
		"single":          {"x"},
		"empty strings":   {"", "", ""},
		"empty mixed":     {"", "a", "", "ab", "", "a"},
		"single symbol":   {"a", "a", "a", "a", "a", "a", "a"},
		"single alphabet": {"a", "aa", "aaa", "aa", "a", "aaaa", "aaa", "aa"},
		"shared prefixes": {"/api/v1/users", "/api/v1/items", "/api/v2/users", "/api", "/api/v1/users"},
		"binary-ish":      {"\x00", "\x00\x00", "\x01", "\xff", "\x00\x01", "\x00"},
		"two values":      {"left", "right", "left", "left", "right"},
	}
	for name, seq := range cases {
		t.Run(name, func(t *testing.T) { checkBitIdentical(t, seq) })
	}
}

func TestBuilderBitIdenticalRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	alphabets := [][]string{
		{"a"},               // single symbol
		{"", "a", "b"},      // empty string in the alphabet
		{"x", "xy", "xyz"},  // chain of prefixes
		make([]string, 200), // large random alphabet
	}
	for i := range alphabets[3] {
		alphabets[3][i] = fmt.Sprintf("key-%04d-%d", r.Intn(500), i%7)
	}
	for ai, alpha := range alphabets {
		for _, n := range []int{1, 2, 17, 256, 1500} {
			seq := make([]string, n)
			for i := range seq {
				seq[i] = alpha[r.Intn(len(alpha))]
			}
			t.Run(fmt.Sprintf("alphabet%d/n%d", ai, n), func(t *testing.T) {
				checkBitIdentical(t, seq)
			})
		}
	}
	t.Run("urllog", func(t *testing.T) {
		checkBitIdentical(t, workload.URLLog(4000, 9, workload.DefaultURLConfig()))
	})
}

func TestBuilderEmpty(t *testing.T) {
	f, err := NewFrozenBuilder().Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 || f.AlphabetSize() != 0 {
		t.Fatalf("empty builder: Len %d, AlphabetSize %d", f.Len(), f.AlphabetSize())
	}
}

// TestBuilderErrors: FeedRange freezes the whole trie or nothing — a
// partial range would be frozen whole, so it is refused.
func TestBuilderErrors(t *testing.T) {
	a := NewAppendOnlyFrom([]string{"a", "b", "a"})
	for _, r := range [][2]int{{0, 2}, {1, 3}} {
		if err := a.FeedRange(NewFrozenBuilder(), r[0], r[1], nil); err == nil {
			t.Fatalf("FeedRange(%d, %d) of 3 elements should error", r[0], r[1])
		}
	}
}

// TestConcatFrozenMatchesFreeze is compaction's merge over the tries it
// meets: generations loaded from their bytes, one copied and one mapped.
// Their concatenation must marshal to the freeze of the whole sequence.
func TestConcatFrozenMatchesFreeze(t *testing.T) {
	seq := workload.URLLog(3000, 11, workload.DefaultURLConfig())
	want, err := NewStatic(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	left, err := NewStatic(seq[:1200]).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	right, err := NewStatic(seq[1200:]).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	l, err := LoadFrozen(left)
	if err != nil {
		t.Fatal(err)
	}
	r, err := LoadFrozenMapped(right, right)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := ConcatFrozen(nil, l, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := merged.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("concatenated halves differ from the freeze of the concatenation (%v)", err)
	}
}

// TestAppendOnlyLiveAfterFrozen: freezing copies the trie's structure and
// leaves it live — it takes appends and answers for them afterwards.
func TestAppendOnlyLiveAfterFrozen(t *testing.T) {
	for _, seq := range [][]string{
		nil,
		{"only"},
		{"", "", ""},
		{"a", "ab", "", "abc", "ab", "a"},
		workload.URLLog(3000, 11, workload.DefaultURLConfig()),
	} {
		a := NewAppendOnlyFrom(seq)
		f, err := a.Frozen()
		if err != nil {
			t.Fatal(err)
		}
		a.Append("appended-after-the-freeze")
		if a.Len() != len(seq)+1 || a.Count("appended-after-the-freeze") != 1 || a.Access(len(seq)) != "appended-after-the-freeze" {
			t.Fatalf("n=%d: trie unusable after Frozen", len(seq))
		}
		if f.Len() != len(seq) || f.Count("appended-after-the-freeze") != 0 {
			t.Fatalf("n=%d: the frozen copy saw the later append", len(seq))
		}
	}
}

// TestLoadFrozenMappedMatches checks the zero-copy decode path answers
// exactly like the validating, copying one.
func TestLoadFrozenMappedMatches(t *testing.T) {
	seq := workload.URLLog(2000, 7, workload.DefaultURLConfig())
	data, err := NewStatic(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LoadFrozenMapped(data, data)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Mapped() {
		t.Fatal("LoadFrozenMapped result not marked mapped")
	}
	for i := 0; i < len(seq); i += 37 {
		if g, w := ref.Access(i), heap.Access(i); g != w {
			t.Fatalf("Access(%d) = %q, want %q", i, g, w)
		}
	}
	for _, s := range []string{seq[0], seq[7], "absent-value"} {
		if g, w := ref.Count(s), heap.Count(s); g != w {
			t.Fatalf("Count(%q) = %d, want %d", s, g, w)
		}
		if g, w := ref.Rank(s, len(seq)/2), heap.Rank(s, len(seq)/2); g != w {
			t.Fatalf("Rank(%q) = %d, want %d", s, g, w)
		}
	}
}
