package wavelettrie

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

// buildViaBuilder runs the two-pass streaming freeze over seq.
func buildViaBuilder(t *testing.T, seq []string) *Frozen {
	t.Helper()
	fb := NewFrozenBuilder()
	for _, s := range seq {
		fb.AddValue(s)
	}
	for _, s := range seq {
		if err := fb.Append(s); err != nil {
			t.Fatalf("Append(%q): %v", s, err)
		}
	}
	f, err := fb.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

// checkBitIdentical asserts the streaming builder's output is
// byte-for-byte the static freeze of the same sequence — the Patricia
// trie is canonical in the string set and both paths emit the same
// preorder walk, so any divergence is a builder bug.
func checkBitIdentical(t *testing.T, seq []string) {
	t.Helper()
	want, err := NewStatic(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := buildViaBuilder(t, seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("builder output differs from static freeze (%d vs %d bytes, n=%d)",
			len(got), len(want), len(seq))
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

func TestFreezeIterateMatchesStatic(t *testing.T) {
	seq := workload.URLLog(2500, 5, workload.DefaultURLConfig())
	f, err := FreezeIterate(func(yield func(s string) bool) {
		for _, s := range seq {
			if !yield(s) {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewStatic(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("FreezeIterate output differs from static freeze")
	}
}

func TestBuilderEmpty(t *testing.T) {
	fb := NewFrozenBuilder()
	f, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 0 {
		t.Fatalf("empty builder Len = %d", f.Len())
	}
	got, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewStatic(nil).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("empty builder output differs from empty static freeze")
	}
}

func TestBuilderErrors(t *testing.T) {
	// Pass-2 element never registered in pass 1.
	fb := NewFrozenBuilder()
	fb.AddValue("known")
	if err := fb.Append("unknown"); err == nil {
		t.Fatal("Append of unregistered value should error")
	}

	// Registered but never appended.
	fb = NewFrozenBuilder()
	fb.AddValue("a")
	fb.AddValue("b")
	if err := fb.Append("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Build(); err == nil {
		t.Fatal("Build with an unfed leaf should error")
	}

	// Appending with no registered values at all.
	fb = NewFrozenBuilder()
	if err := fb.Append("x"); err == nil {
		t.Fatal("Append with no registered values should error")
	}
}

// TestBuilderFedFromFrozen exercises the compaction merge: two frozen
// halves concatenated structurally must reproduce the static freeze of
// the concatenation exactly, and so must the append-only trie of the
// whole sequence frozen in place (the flush).
func TestBuilderFedFromFrozen(t *testing.T) {
	seq := workload.URLLog(3000, 11, workload.DefaultURLConfig())
	left := NewStatic(seq[:1200])
	right := NewStatic(seq[1200:])
	want, err := NewStatic(seq).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	merged, err := ConcatFrozen(nil, left, right)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concatenated halves differ from static freeze of the concatenation")
	}

	frozen, err := NewAppendOnlyFrom(seq).Frozen()
	if err != nil {
		t.Fatal(err)
	}
	if got, err = frozen.MarshalBinary(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("append-only trie frozen in place differs from static freeze of its sequence")
	}
}

// TestAppendOnlyFrozenBitIdentical holds AppendOnly.Frozen — the flush —
// to the bytes of NewStatic(seq) on every shape an append-only
// node bitvector takes: empty and one-element tries, raw tails only, and a
// sequence long enough that the top vectors carry sealed RRR segments and
// a partial tail while a value first seen late gives its node an Init run
// of thousands.
func TestAppendOnlyFrozenBitIdentical(t *testing.T) {
	long := workload.URLLog(40000, 5, workload.DefaultURLConfig())
	long = append(long, "a-value-first-seen-after-40000") // splits near the root: Init(b, 40000)
	long = append(long, workload.URLLog(3000, 6, workload.DefaultURLConfig())...)
	for _, seq := range [][]string{
		nil,
		{"only"},
		{"", "", ""},
		{"a", "ab", "", "abc", "ab", "a"},
		workload.URLLog(3000, 11, workload.DefaultURLConfig()),
		long,
	} {
		a := NewAppendOnlyFrom(seq)
		f, err := a.Frozen()
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewStatic(seq).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: append-only trie frozen in place differs from the static freeze", len(seq))
		}
		// The trie is still live afterwards.
		a.Append("appended-after-the-freeze")
		if a.Len() != len(seq)+1 || a.Count("appended-after-the-freeze") != 1 {
			t.Fatalf("n=%d: trie unusable after Frozen", len(seq))
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
