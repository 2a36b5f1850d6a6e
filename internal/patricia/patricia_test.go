package patricia

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/entropy"
)

// checkInvariants validates the full Patricia trie structure.
func checkInvariants(t *testing.T, tr *Trie[int]) {
	t.Helper()
	leaves := 0
	tr.Walk(func(n *Node[int], _ int) {
		if n.IsLeaf() {
			leaves++
			if n.Child(1) != nil {
				t.Fatal("leaf with one child")
			}
		} else {
			if n.Child(0) == nil || n.Child(1) == nil {
				t.Fatal("internal node must have two children")
			}
			if n.Child(0).Parent() != n || n.Child(1).Parent() != n {
				t.Fatal("parent pointer broken")
			}
		}
	})
	if leaves != tr.Len() {
		t.Fatalf("Len=%d but %d leaves", tr.Len(), leaves)
	}
	if tr.Len() > 0 {
		if got := tr.NumNodes(); got != 2*tr.Len()-1 {
			t.Fatalf("NumNodes=%d want %d", got, 2*tr.Len()-1)
		}
		if tr.Root().Parent() != nil {
			t.Fatal("root has a parent")
		}
	}
}

func encodeAll(words []string) []bitstr.BitString {
	out := make([]bitstr.BitString, len(words))
	for i, w := range words {
		out[i] = bitstr.EncodeString(w)
	}
	return out
}

func TestInsertFindBasic(t *testing.T) {
	tr := New[int]()
	words := []string{"romane", "romanus", "romulus", "rubens", "ruber", "rubicon", "rubicundus"}
	for i, w := range words {
		res := tr.Insert(bitstr.EncodeString(w))
		if !res.Created {
			t.Fatalf("insert %q: not created", w)
		}
		res.Leaf.Payload = i
	}
	if tr.Len() != len(words) {
		t.Fatalf("Len=%d", tr.Len())
	}
	checkInvariants(t, tr)
	for i, w := range words {
		leaf := tr.Find(bitstr.EncodeString(w))
		if leaf == nil {
			t.Fatalf("Find(%q) = nil", w)
		}
		if leaf.Payload != i {
			t.Fatalf("Find(%q) payload %d want %d", w, leaf.Payload, i)
		}
		if bitstr.Compare(leaf.String(), bitstr.EncodeString(w)) != 0 {
			t.Fatalf("leaf.String() does not reconstruct %q", w)
		}
	}
	if tr.Find(bitstr.EncodeString("roman")) != nil {
		t.Fatal("found a non-member")
	}
	if tr.Find(bitstr.EncodeString("rubiconx")) != nil {
		t.Fatal("found a non-member extension")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New[int]()
	s := bitstr.EncodeString("abc")
	r1 := tr.Insert(s)
	r2 := tr.Insert(s)
	if !r1.Created || r2.Created {
		t.Fatal("duplicate insert must not create")
	}
	if r1.Leaf != r2.Leaf || r2.Split != nil {
		t.Fatal("duplicate insert must return the same leaf, no split")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestSplitReporting(t *testing.T) {
	tr := New[int]()
	tr.Insert(bitstr.EncodeString("abc"))
	res := tr.Insert(bitstr.EncodeString("abd"))
	if res.Split == nil {
		t.Fatal("expected a split")
	}
	if res.Split.IsLeaf() {
		t.Fatal("split node must be internal")
	}
	// The new leaf and the old node must be the split node's children.
	if res.Leaf.Parent() != res.Split {
		t.Fatal("new leaf must hang off the split node")
	}
	other := res.Split.Child(1 - res.Leaf.ChildBit())
	if other == nil || other == res.Leaf {
		t.Fatal("split sibling missing")
	}
	checkInvariants(t, tr)
}

func TestStringsSortedAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(80))
	tr := New[int]()
	seen := map[string]bool{}
	var words []string
	for len(words) < 200 {
		n := r.Intn(8) + 1
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(4))
		}
		if seen[string(b)] {
			continue
		}
		seen[string(b)] = true
		words = append(words, string(b))
		tr.Insert(bitstr.EncodeString(string(b)))
	}
	checkInvariants(t, tr)
	got := tr.Strings()
	if len(got) != len(words) {
		t.Fatalf("Strings returned %d, want %d", len(got), len(words))
	}
	sort.Strings(words)
	for i, w := range words {
		dec, err := bitstr.DecodeString(got[i])
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if dec != w {
			t.Fatalf("Strings[%d] = %q want %q", i, dec, w)
		}
	}
}

func TestDeleteMerge(t *testing.T) {
	words := []string{"a", "ab", "abc", "b", "ba", "bb"}
	// Insert all, then delete in every order of a few random permutations.
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 50; trial++ {
		tr := New[int]()
		for _, w := range words {
			tr.Insert(bitstr.EncodeString(w))
		}
		perm := r.Perm(len(words))
		remaining := map[string]bool{}
		for _, w := range words {
			remaining[w] = true
		}
		for _, pi := range perm {
			w := words[pi]
			leaf := tr.Find(bitstr.EncodeString(w))
			if leaf == nil {
				t.Fatalf("trial %d: %q not found before delete", trial, w)
			}
			res := tr.Delete(leaf)
			delete(remaining, w)
			if tr.Len() != len(remaining) {
				t.Fatalf("Len=%d want %d", tr.Len(), len(remaining))
			}
			if tr.Len() > 0 && res.Removed == nil {
				// Only the very last deletion (root leaf) has no removed internal.
				if res.Merged == nil {
					t.Fatal("delete of non-root leaf must merge")
				}
			}
			for w2 := range remaining {
				if tr.Find(bitstr.EncodeString(w2)) == nil {
					t.Fatalf("trial %d: %q lost after deleting %q", trial, w2, w)
				}
			}
			if tr.Find(bitstr.EncodeString(w)) != nil {
				t.Fatalf("%q still present after delete", w)
			}
		}
		if tr.Root() != nil {
			t.Fatal("root must be nil after deleting everything")
		}
	}
}

func TestFindPrefix(t *testing.T) {
	tr := New[int]()
	for _, w := range []string{"http://a.com/x", "http://a.com/y", "http://b.org/z", "ftp://c"} {
		tr.Insert(bitstr.EncodeString(w))
	}
	cases := []struct {
		prefix string
		want   bool
	}{
		{"http://", true}, {"http://a.com/", true}, {"http://a.com/x", true},
		{"http://b", true}, {"ftp://", true}, {"", true},
		{"https://", false}, {"http://a.com/z", false}, {"gopher", false},
	}
	for _, c := range cases {
		n, _ := tr.FindPrefix(bitstr.EncodePrefixString(c.prefix))
		if (n != nil) != c.want {
			t.Errorf("FindPrefix(%q) found=%v want %v", c.prefix, n != nil, c.want)
		}
	}
	// FindPrefix of a full encoded string (with terminator) lands on its leaf.
	n, _ := tr.FindPrefix(bitstr.EncodeString("ftp://c"))
	if n == nil || !n.IsLeaf() {
		t.Error("FindPrefix of complete string should reach the leaf")
	}
}

func TestPrefixFreeViolationPanics(t *testing.T) {
	tr := New[int]()
	tr.Insert(bitstr.MustParse("0101"))
	for _, s := range []string{"01", "010101"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("inserting %q should panic", s)
				}
			}()
			tr.Insert(bitstr.MustParse(s))
		}()
	}
}

func TestDepthMatchesInternalCount(t *testing.T) {
	tr := New[int]()
	words := []string{"aa", "ab", "ac", "ad"}
	for _, w := range words {
		tr.Insert(bitstr.EncodeString(w))
	}
	// Every leaf depth = number of internal nodes on its path; with 4
	// strings there are 3 internal nodes; depths must be within [1,3].
	for _, w := range words {
		d := tr.Find(bitstr.EncodeString(w)).Depth()
		if d < 1 || d > 3 {
			t.Errorf("depth of %q = %d", w, d)
		}
	}
}

func TestLabelBitsMatchesEntropyShape(t *testing.T) {
	// |L| computed by the trie must agree with the independent accountant
	// in internal/entropy.
	r := rand.New(rand.NewSource(82))
	for trial := 0; trial < 30; trial++ {
		tr := New[int]()
		seen := map[string]bool{}
		var set []bitstr.BitString
		for len(set) < 50 {
			n := r.Intn(6) + 1
			b := make([]byte, n)
			for i := range b {
				b[i] = byte('0' + r.Intn(3))
			}
			if seen[string(b)] {
				continue
			}
			seen[string(b)] = true
			e := bitstr.EncodeString(string(b))
			set = append(set, e)
			tr.Insert(e)
		}
		sh := entropy.ShapeOf(set)
		if got := tr.LabelBits(); got != sh.LabelBits {
			t.Fatalf("trial %d: trie |L|=%d entropy |L|=%d", trial, got, sh.LabelBits)
		}
		if got := tr.NumNodes() - tr.Len(); got != sh.Edges/2 {
			t.Fatalf("trial %d: internal nodes %d vs edges/2 %d", trial, got, sh.Edges/2)
		}
	}
}

func TestRandomInsertDeleteChurn(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	tr := New[int]()
	live := map[string]bool{}
	var liveList []string
	randWord := func() string {
		n := r.Intn(10) + 1
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + r.Intn(3))
		}
		return string(b)
	}
	for step := 0; step < 5000; step++ {
		if r.Intn(3) != 0 || len(liveList) == 0 {
			w := randWord()
			if live[w] {
				continue
			}
			res := tr.Insert(bitstr.EncodeString(w))
			if !res.Created {
				t.Fatalf("%q should have been new", w)
			}
			live[w] = true
			liveList = append(liveList, w)
		} else {
			i := r.Intn(len(liveList))
			w := liveList[i]
			liveList[i] = liveList[len(liveList)-1]
			liveList = liveList[:len(liveList)-1]
			delete(live, w)
			leaf := tr.Find(bitstr.EncodeString(w))
			if leaf == nil {
				t.Fatalf("%q missing before delete", w)
			}
			tr.Delete(leaf)
		}
		if tr.Len() != len(live) {
			t.Fatalf("Len=%d want %d", tr.Len(), len(live))
		}
	}
	checkInvariants(t, tr)
	for w := range live {
		if tr.Find(bitstr.EncodeString(w)) == nil {
			t.Fatalf("%q lost", w)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(84))
	words := make([]bitstr.BitString, 1<<14)
	for i := range words {
		buf := make([]byte, 12)
		for j := range buf {
			buf[j] = byte('a' + r.Intn(26))
		}
		words[i] = bitstr.EncodeString(string(buf))
	}
	b.ResetTimer()
	tr := New[int]()
	for i := 0; i < b.N; i++ {
		tr.Insert(words[i%len(words)])
	}
}

func BenchmarkFind(b *testing.B) {
	r := rand.New(rand.NewSource(85))
	tr := New[int]()
	words := make([]bitstr.BitString, 1<<14)
	for i := range words {
		buf := make([]byte, 12)
		for j := range buf {
			buf[j] = byte('a' + r.Intn(26))
		}
		words[i] = bitstr.EncodeString(string(buf))
		tr.Insert(words[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Find(words[i%len(words)])
	}
}
