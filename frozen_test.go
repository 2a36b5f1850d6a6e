package wavelettrie

import (
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func TestFrozenRoundTrip(t *testing.T) {
	seq := workload.URLLog(3000, 15, workload.DefaultURLConfig())
	st := NewStatic(seq)
	data, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != st.Len() || got.AlphabetSize() != st.AlphabetSize() {
		t.Fatal("totals differ after round trip")
	}
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 3000; i += 7 {
		if got.Access(i) != st.Access(i) {
			t.Fatalf("Access(%d) differs after round trip", i)
		}
	}
	probes := append(workload.Distinct(seq)[:10], "absent", "host0")
	for _, p := range probes {
		pos := r.Intn(3001)
		if got.Rank(p, pos) != st.Rank(p, pos) {
			t.Fatalf("Rank(%q,%d) differs", p, pos)
		}
		if got.RankPrefix(p, pos) != st.RankPrefix(p, pos) {
			t.Fatalf("RankPrefix(%q,%d) differs", p, pos)
		}
		if c := got.Count(p); c > 0 {
			gp, gok := got.Select(p, c-1)
			wp, wok := st.Select(p, c-1)
			if gok != wok || gp != wp {
				t.Fatalf("Select(%q) differs", p)
			}
		}
		if c := got.CountPrefix(p); c > 0 {
			gp, gok := got.SelectPrefix(p, c/2)
			wp, wok := st.SelectPrefix(p, c/2)
			if gok != wok || gp != wp {
				t.Fatalf("SelectPrefix(%q) differs", p)
			}
		}
	}
	// Serialized size tracks the succinct size (8x for bytes->bits, plus
	// headers and word padding).
	if len(data)*8 > st.SizeBits()*5/4+1024 {
		t.Fatalf("serialized %d bits vs succinct %d bits", len(data)*8, st.SizeBits())
	}
}

func TestFrozenEmptyAndSingleton(t *testing.T) {
	for _, seq := range [][]string{nil, {"one"}, {"a", "a", "a"}} {
		fz := NewStatic(seq)
		data, err := fz.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadFrozen(data)
		if err != nil {
			t.Fatalf("seq %v: %v", seq, err)
		}
		if got.Len() != len(seq) {
			t.Fatalf("seq %v: Len=%d", seq, got.Len())
		}
		if len(seq) > 0 && got.Access(0) != seq[0] {
			t.Fatal("content")
		}
		want := ""
		if len(seq) > 0 {
			want = seq[0]
		}
		if lo, hi := got.Bounds(); lo != want || hi != want {
			t.Fatalf("seq %v: Bounds = [%q, %q]", seq, lo, hi)
		}
		if n, err := UnionAlphabetSize([]*Frozen{fz, got}, []*AppendOnly{NewAppendOnlyFrom(seq)}); err != nil || n != got.AlphabetSize() {
			t.Fatalf("seq %v: UnionAlphabetSize of three copies = %d, %v; each holds %d", seq, n, err, got.AlphabetSize())
		}
	}
}

func TestLoadFrozenRejectsGarbage(t *testing.T) {
	good, _ := NewStatic([]string{"a", "b", "a"}).MarshalBinary()
	cases := map[string][]byte{
		"empty":       {},
		"short":       good[:4],
		"bad magic":   append([]byte{9, 9, 9, 9}, good[4:]...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte{}, good...), 0xff),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{0xff, 0xff}, good[6:]...)...),
	}
	for name, data := range cases {
		if _, err := LoadFrozen(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFrozenStructuralValidation(t *testing.T) {
	// Flip header fields to violate cross-component invariants; the loader
	// must reject rather than return a structure that panics later.
	good, _ := NewStatic([]string{"aa", "ab", "aa", "ba"}).MarshalBinary()
	// Corrupt the element count (bytes 6..14 hold n).
	bad := append([]byte{}, good...)
	bad[6] = 0xFF
	if _, err := LoadFrozen(bad); err == nil {
		// A huge n with a consistent trie is structurally detectable only
		// partially; at minimum it must not panic on basic queries.
		f, _ := LoadFrozen(bad)
		func() {
			defer func() { recover() }()
			if f != nil && f.Len() > 0 {
				_ = f.Rank("aa", 1)
			}
		}()
	}
}
