package succinct

import (
	"strings"
	"testing"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/dfuds"
	"repro/internal/eliasfano"
	"repro/internal/wire"
)

// freezeOf is the structural freeze of seq — an append-only trie over it,
// frozen as a flush freezes one.
func freezeOf(seq []string) *Trie { return freezeBits(encodeSeq(seq)) }

func freezeBits(seq []bitstr.BitString) *Trie {
	t, err := FreezeAppendOnly(appendOnlyOf(seq))
	if err != nil {
		panic(err)
	}
	return t
}

func TestMarshalRoundTripInternal(t *testing.T) {
	for _, seq := range [][]string{
		nil,
		{"one"},
		{"a", "b", "a", "ab", "b", "b"},
	} {
		fz := freezeOf(seq)
		got, err := unmarshal(marshalOf(t, fz))
		if err != nil {
			t.Fatalf("seq %v: %v", seq, err)
		}
		if got.Len() != len(seq) || got.AlphabetSize() != fz.AlphabetSize() {
			t.Fatalf("seq %v: totals differ", seq)
		}
		for i := range seq {
			if bitstr.Compare(got.AccessBits(i), fz.AccessBits(i)) != 0 {
				t.Fatalf("seq %v: Access(%d)", seq, i)
			}
		}
	}
}

// TestUnmarshalCrossComponentValidation flips individual header fields,
// and re-encodes the trie with one component swapped for a lie the others
// do not share, and verifies the loader rejects each inconsistency class
// rather than returning a structure that fails later.
func TestUnmarshalCrossComponentValidation(t *testing.T) {
	seq := []string{"aa", "ab", "aa", "ba", "bb"}
	good := marshalOf(t, freezeOf(seq))
	if _, err := unmarshal(good); err != nil {
		t.Fatalf("control: %v", err)
	}
	mutate := func(off int, xor byte) []byte {
		b := append([]byte{}, good...)
		b[off] ^= xor
		return b
	}
	// with marshals the trie of seq after damage has changed a component.
	with := func(damage func(tr *Trie)) []byte {
		tr := freezeOf(seq)
		damage(tr)
		return marshalOf(t, tr)
	}
	shape := func(bits ...byte) *dfuds.Tree {
		b := bitvec.NewBuilder(len(bits))
		for _, x := range bits {
			b.AppendBit(x)
		}
		return dfuds.NewTree(b.Build())
	}
	// seq has 4 distinct strings: 7 nodes, 3 segments.
	if tr := freezeOf(seq); tr.tree.NumNodes() != 7 || tr.bvOffsets.Len() != 4 {
		t.Fatalf("control trie has %d nodes and %d segments", tr.tree.NumNodes(), tr.bvOffsets.Len()-1)
	}
	// Header layout: magic(4) version(2) n(8) nodes(8) …
	for _, c := range []struct {
		name string
		data []byte
		want string // in the error
	}{
		{"node count", mutate(14, 0x01), "header says 6"},
		{"truncated", good[:len(good)/2], "truncated"},
		{"trailing", append(append([]byte{}, good...), 1, 2, 3), "trailing"},
		{"empty-with-elements", func() []byte {
			b := append([]byte{}, good...)
			for i := 14; i < 22; i++ {
				b[i] = 0 // nodes = 0 while n > 0
			}
			return b[:22]
		}(), "empty trie"},
		{"segment-length lie", with(func(tr *Trie) {
			// Still monotone, still ending where the stream does — but the
			// second segment starts a bit late, so the first is a bit longer
			// than the root's subsequence. (The rank samples, rebuilt
			// against the directory, believe it.)
			offs := make([]uint64, tr.bvOffsets.Len())
			for i := range offs {
				offs[i] = tr.bvOffsets.Get(i)
			}
			offs[1]++
			tr.bvOffsets = eliasfano.FromSorted(offs, offs[len(offs)-1]+1)
		}), "segment 6 bits, subsequence has 5"},
		{"unbalanced bitmap", with(func(tr *Trie) {
			// Seven nodes, but the second leaf closes the tree: a forest.
			tr.tree = shape(1, 1, 0, 0, 1, 0, 1, 0)
		}), "not balanced"},
		{"bitmap of another node count", with(func(tr *Trie) {
			// A well-formed tree of 5 nodes under a label directory of 7;
			// EncodeTo writes the bitmap's own count in the header.
			tr.tree = shape(1, 1, 1, 0, 0, 0)
		}), "label directory covers 7 nodes, want 5"},
	} {
		if _, err := unmarshal(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want a refusal saying %q", c.name, err, c.want)
		}
	}
}

func TestFrozenPanicsOnBadPositions(t *testing.T) {
	fz := freezeOf([]string{"x", "y"})
	for _, f := range []func(){
		func() { fz.AccessBits(2) },
		func() { fz.AccessBits(-1) },
		func() { fz.RankBits(bitstr.EncodeString("x"), 3) },
		func() { fz.RankPrefixBits(bitstr.EncodePrefixString("x"), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	// Select with absurd idx must return false, not panic.
	if _, ok := fz.SelectBits(bitstr.EncodeString("x"), 99); ok {
		t.Error("Select past count should fail")
	}
	if _, ok := fz.SelectPrefixBits(bitstr.EncodePrefixString("zz"), 0); ok {
		t.Error("SelectPrefix of absent prefix should fail")
	}
}

// The tests frame a trie body behind a header of the size an enclosing
// container writes (magic and version), so byte offsets into the body and
// its word alignment are those of a real file.
const (
	testMagic   = 0x54534554 // "TEST"
	testVersion = 1
)

// marshalOf encodes tr into a framed buffer.
func marshalOf(t testing.TB, tr *Trie) []byte {
	t.Helper()
	w := wire.NewWriter(testMagic, testVersion)
	tr.EncodeTo(w)
	return w.Bytes()
}

// unmarshal decodes a buffer made by marshalOf, validating.
func unmarshal(data []byte) (*Trie, error) {
	r, err := wire.NewReader(data, testMagic, testVersion)
	if err != nil {
		return nil, err
	}
	t, err := DecodeFrom(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}
