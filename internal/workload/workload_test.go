package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/entropy"
)

func TestDeterminism(t *testing.T) {
	a := URLLog(500, 1, DefaultURLConfig())
	b := URLLog(500, 1, DefaultURLConfig())
	c := URLLog(500, 2, DefaultURLConfig())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same sequence")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestURLLogShape(t *testing.T) {
	cfg := DefaultURLConfig()
	seq := URLLog(5000, 3, cfg)
	if len(seq) != 5000 {
		t.Fatal("length")
	}
	for _, s := range seq[:100] {
		if !strings.Contains(s, ".example") {
			t.Fatalf("malformed URL %q", s)
		}
		if strings.Count(s, "/") > cfg.MaxDepth {
			t.Fatalf("path too deep: %q", s)
		}
	}
	// Zipf skew: the most common value should dominate.
	counts := map[string]int{}
	for _, s := range seq {
		counts[s]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < 5000/50 {
		t.Fatalf("no hot values: max count %d over %d distinct", max, len(counts))
	}
}

func TestZipfSkewLowersEntropy(t *testing.T) {
	zipf := ZipfStrings(20000, 256, 1.5, 4)
	r := rand.New(rand.NewSource(4))
	unif := make([]string, 20000)
	for i := range unif {
		unif[i] = fmt.Sprintf("v%d", r.Intn(256))
	}
	hZipf := entropy.NH0Strings(zipf) / 20000
	hUnif := entropy.NH0Strings(unif) / 20000
	if hZipf >= hUnif {
		t.Fatalf("Zipf entropy %.3f must be below uniform %.3f", hZipf, hUnif)
	}
	if hUnif < 7 || hUnif > 8.01 {
		t.Fatalf("uniform-256 entropy %.3f should be near 8", hUnif)
	}
}

func TestGrowingAlphabetGrows(t *testing.T) {
	seq := GrowingAlphabet(10000, 10, 5)
	early := len(Distinct(seq[:1000]))
	all := len(Distinct(seq))
	if all <= early {
		t.Fatalf("alphabet did not grow: %d then %d", early, all)
	}
}

func TestEdgeStreamFormat(t *testing.T) {
	seq := EdgeStream(100, 50, 7)
	for _, s := range seq {
		if !strings.Contains(s, "->") || !strings.HasPrefix(s, "user") {
			t.Fatalf("malformed edge %q", s)
		}
	}
}

func TestNumericColumnAlphabet(t *testing.T) {
	vals := NumericColumn(5000, 64, 8)
	seen := map[uint64]bool{}
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) > 64 {
		t.Fatalf("alphabet %d exceeds sigma", len(seen))
	}
	if len(seen) < 16 {
		t.Fatalf("alphabet %d suspiciously small", len(seen))
	}
}
