package patricia

import (
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/wire"
)

// intPayload round-trips internal-node payloads as plain ints.
func encodeInt(n *Node[int], w *wire.Writer) { w.Int(n.Payload) }
func decodeInt(r *wire.Reader) int           { return r.Int() }

func buildTestTrie(strs []string) *Trie[int] {
	t := New[int]()
	for _, s := range strs {
		res := t.Insert(bitstr.MustParse(s))
		if res.Split != nil {
			res.Split.Payload = len(s)
		}
	}
	return t
}

// chainStrings returns the prefix-free set {1^i 0 : i < depth}, whose
// trie is a maximal-depth chain — the worst case for the decoder's
// explicit traversal stack.
func chainStrings(depth int) []string {
	out := make([]string, depth)
	for i := range out {
		out[i] = strings.Repeat("1", i) + "0"
	}
	return out
}

func TestEncodeRoundTrip(t *testing.T) {
	for _, strs := range [][]string{
		{},
		{"0110"},
		{"0110", "0111", "000", "10", "111"},
		{"1", "01", "001", "0001"},
		chainStrings(1200),
	} {
		tr := buildTestTrie(strs)
		w := wire.NewWriter(1, 1)
		tr.EncodeTo(w, encodeInt)
		r, _ := wire.NewReader(w.Bytes(), 1, 1)
		got := DecodeTrie(r, decodeInt)
		if err := r.Done(); err != nil {
			t.Fatalf("%v: %v", strs, err)
		}
		if got.Len() != tr.Len() || got.NumNodes() != tr.NumNodes() {
			t.Fatalf("%v: shape differs", strs)
		}
		want := tr.Strings()
		have := got.Strings()
		for i := range want {
			if bitstr.Compare(want[i], have[i]) != 0 {
				t.Fatalf("%v: string %d = %v, want %v", strs, i, have[i], want[i])
			}
		}
		// Payloads and parent links must survive.
		var checkNode func(a, b *Node[int])
		checkNode = func(a, b *Node[int]) {
			if a.IsLeaf() != b.IsLeaf() || bitstr.Compare(a.Label(), b.Label()) != 0 {
				t.Fatalf("%v: node mismatch", strs)
			}
			if a.IsLeaf() {
				return
			}
			if a.Payload != b.Payload {
				t.Fatalf("%v: payload %d, want %d", strs, b.Payload, a.Payload)
			}
			for i := byte(0); i < 2; i++ {
				if b.Child(i).Parent() != b {
					t.Fatalf("%v: broken parent link", strs)
				}
				checkNode(a.Child(i), b.Child(i))
			}
		}
		if tr.Root() != nil {
			checkNode(tr.Root(), got.Root())
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	tr := buildTestTrie([]string{"0110", "0111", "000", "10", "111"})
	w := wire.NewWriter(1, 1)
	tr.EncodeTo(w, encodeInt)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut++ {
		r, err := wire.NewReader(data[:cut], 1, 1)
		if err != nil {
			continue // header truncation already rejected
		}
		DecodeTrie(r, decodeInt)
		if r.Done() == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	// A lying leaf count must be rejected.
	bad := append([]byte(nil), data...)
	bad[6]++ // size field (after magic+version)
	r, _ := wire.NewReader(bad, 1, 1)
	DecodeTrie(r, decodeInt)
	if r.Done() == nil {
		t.Fatal("wrong leaf count accepted")
	}
}
