package seqstore_test

import (
	"testing"

	wavelettrie "repro"
	"repro/internal/seqstore"
	"repro/internal/seqstore/btindex"
	"repro/internal/seqstore/flat"
	"repro/internal/seqstore/textindex"
	"repro/internal/workload"
)

// TestDifferentialEquivalence checks every Sequence implementation —
// the baselines, the Wavelet Trie variants, and variants reopened from
// snapshots — against the flat-scan oracle over the same workload.
func TestDifferentialEquivalence(t *testing.T) {
	seq := workload.URLLog(400, 13, workload.DefaultURLConfig())
	oracle := flat.FromSlice(seq)

	frozen := wavelettrie.NewStatic(seq)
	reload := func(ix wavelettrie.Index) wavelettrie.Index {
		data, err := ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := wavelettrie.Load(data)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}

	stores := map[string]seqstore.Sequence{
		"btindex":           btindex.FromSlice(seq),
		"textindex":         textindex.New(seq),
		"appendonly":        wavelettrie.NewAppendOnlyFrom(seq),
		"dynamic":           wavelettrie.NewDynamicFrom(seq),
		"frozen":            frozen,
		"appendonly.reload": reload(wavelettrie.NewAppendOnlyFrom(seq)).(seqstore.Sequence),
		"dynamic.reloaded":  reload(wavelettrie.NewDynamicFrom(seq)).(seqstore.Sequence),
		"frozen.reloaded":   reload(frozen).(seqstore.Sequence),
	}

	probes := append([]string(nil), seq[:8]...)
	probes = append(probes, "absent", "host")
	for name, st := range stores {
		if st.Len() != oracle.Len() {
			t.Fatalf("%s: Len = %d, want %d", name, st.Len(), oracle.Len())
		}
		for pos := 0; pos < oracle.Len(); pos += 7 {
			if g, w := st.Access(pos), oracle.Access(pos); g != w {
				t.Fatalf("%s: Access(%d) = %q, want %q", name, pos, g, w)
			}
		}
		for _, s := range probes {
			for _, pos := range []int{0, 100, oracle.Len()} {
				if g, w := st.Rank(s, pos), oracle.Rank(s, pos); g != w {
					t.Fatalf("%s: Rank(%q,%d) = %d, want %d", name, s, pos, g, w)
				}
				if g, w := st.RankPrefix(s, pos), oracle.RankPrefix(s, pos); g != w {
					t.Fatalf("%s: RankPrefix(%q,%d) = %d, want %d", name, s, pos, g, w)
				}
			}
			for _, idx := range []int{0, 3} {
				gp, gok := st.Select(s, idx)
				wp, wok := oracle.Select(s, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("%s: Select(%q,%d) = %d,%v want %d,%v", name, s, idx, gp, gok, wp, wok)
				}
				gp, gok = st.SelectPrefix(s, idx)
				wp, wok = oracle.SelectPrefix(s, idx)
				if gok != wok || (gok && gp != wp) {
					t.Fatalf("%s: SelectPrefix(%q,%d) = %d,%v want %d,%v", name, s, idx, gp, gok, wp, wok)
				}
			}
		}
	}
}

// TestEnumerateMatchesAccess streams every Wavelet Trie variant —
// including a reloaded snapshot — through Enumerate and diffs the
// stream against per-position Access, over the full range and a
// boundary-crossing subrange.
func TestEnumerateMatchesAccess(t *testing.T) {
	seq := workload.URLLog(300, 37, workload.DefaultURLConfig())
	frozen := wavelettrie.NewStatic(seq)
	reloadedFrozen, err := wavelettrie.LoadFrozen(mustMarshal(t, frozen))
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]wavelettrie.RangeIndex{
		"appendonly":      wavelettrie.NewAppendOnlyFrom(seq),
		"dynamic":         wavelettrie.NewDynamicFrom(seq),
		"frozen":          frozen,
		"frozen.reloaded": reloadedFrozen,
	}
	for name, st := range stores {
		for _, lr := range [][2]int{{0, st.Len()}, {37, 203}} {
			next := lr[0]
			st.Enumerate(lr[0], lr[1], func(pos int, s string) bool {
				if pos != next {
					t.Fatalf("%s: stream position %d, want %d", name, pos, next)
				}
				if want := st.Access(pos); s != want {
					t.Fatalf("%s: stream(%d) = %q, Access says %q", name, pos, s, want)
				}
				next++
				return true
			})
			if next != lr[1] {
				t.Fatalf("%s: stream [%d,%d) stopped at %d", name, lr[0], lr[1], next)
			}
		}
	}
}

// TestAppendableResume checks that appendable stores — including a
// Wavelet Trie reopened from a snapshot — accept further appends and
// stay equivalent.
func TestAppendableResume(t *testing.T) {
	seq := workload.URLLog(120, 29, workload.DefaultURLConfig())
	oracle := flat.FromSlice(seq)

	reloaded, err := wavelettrie.LoadAppendOnly(mustMarshal(t, wavelettrie.NewAppendOnlyFrom(seq)))
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]seqstore.Appendable{
		"btindex":           btindex.FromSlice(seq),
		"appendonly.reload": reloaded,
		"dynamic":           wavelettrie.NewDynamicFrom(seq),
	}
	extra := workload.URLLog(40, 31, workload.DefaultURLConfig())
	for _, s := range extra {
		oracle.Append(s)
		for _, st := range stores {
			st.Append(s)
		}
	}
	for name, st := range stores {
		for pos := oracle.Len() - len(extra); pos < oracle.Len(); pos++ {
			if g, w := st.Access(pos), oracle.Access(pos); g != w {
				t.Fatalf("%s: Access(%d) = %q, want %q", name, pos, g, w)
			}
		}
	}
}

func mustMarshal(t *testing.T, ix wavelettrie.Index) []byte {
	t.Helper()
	data, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
