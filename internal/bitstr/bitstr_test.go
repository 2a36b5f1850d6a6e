package bitstr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randBits produces a random textual bit pattern of length up to maxLen.
func randBits(r *rand.Rand, maxLen int) string {
	n := r.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte('0' + byte(r.Intn(2)))
	}
	return sb.String()
}

func TestParseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := randBits(r, 300)
		bs := MustParse(s)
		if bs.Len() != len(s) {
			t.Fatalf("len mismatch: got %d want %d", bs.Len(), len(s))
		}
		if got := bs.String(); got != s {
			t.Fatalf("round trip: got %q want %q", got, s)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("01x0"); err == nil {
		t.Fatal("expected error for invalid character")
	}
}

func TestNewPanicsOnBadBit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bit value 2")
		}
	}()
	New(0, 1, 2)
}

func TestBitAndIndexing(t *testing.T) {
	bs := MustParse("0100010")
	want := []byte{0, 1, 0, 0, 0, 1, 0}
	for i, w := range want {
		if got := bs.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	bs := MustParse("01")
	for _, i := range []int{-1, 2, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) should panic", i)
				}
			}()
			bs.Bit(i)
		}()
	}
}

func TestSubMatchesStringSlicing(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		s := randBits(r, 260)
		bs := MustParse(s)
		from := r.Intn(len(s) + 1)
		to := from + r.Intn(len(s)-from+1)
		if got, want := bs.Sub(from, to).String(), s[from:to]; got != want {
			t.Fatalf("Sub(%d,%d) of %q = %q, want %q", from, to, s, got, want)
		}
	}
}

func TestSubInvalidRangePanics(t *testing.T) {
	bs := MustParse("0101")
	cases := [][2]int{{-1, 2}, {0, 5}, {3, 2}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%d,%d) should panic", c[0], c[1])
				}
			}()
			bs.Sub(c[0], c[1])
		}()
	}
}

func TestPrefixSuffix(t *testing.T) {
	bs := MustParse("110010")
	if got := bs.Prefix(3).String(); got != "110" {
		t.Errorf("Prefix(3) = %q", got)
	}
	if got := bs.Suffix(3).String(); got != "010" {
		t.Errorf("Suffix(3) = %q", got)
	}
	if !bs.Prefix(0).IsEmpty() || !bs.Suffix(6).IsEmpty() {
		t.Error("empty prefix/suffix expected")
	}
}

// lcpRef computes LCP on text form.
func lcpRef(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

func TestLCPAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := randBits(r, 200)
		b := randBits(r, 200)
		// Bias toward long shared prefixes: half the time, copy a prefix.
		if r.Intn(2) == 0 && len(a) > 0 {
			k := r.Intn(len(a) + 1)
			b = a[:k] + b
			if len(b) > 200 {
				b = b[:200]
			}
		}
		x, y := MustParse(a), MustParse(b)
		if got, want := LCP(x, y), lcpRef(a, b); got != want {
			t.Fatalf("LCP(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestCompareAgainstStringCompare(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		a := randBits(r, 150)
		b := randBits(r, 150)
		if r.Intn(3) == 0 {
			b = a // force equality sometimes
		}
		got := Compare(MustParse(a), MustParse(b))
		want := strings.Compare(a, b)
		if got != want {
			t.Fatalf("Compare(%q,%q) = %d, want %d", a, b, got, want)
		}
	}
}

func TestEqualAndHasPrefix(t *testing.T) {
	a := MustParse("010011")
	if !Equal(a, MustParse("010011")) || Equal(a, MustParse("010010")) || Equal(a, MustParse("01001")) {
		t.Error("Equal misbehaves")
	}
	for k := 0; k <= a.Len(); k++ {
		if !a.HasPrefix(a.Prefix(k)) {
			t.Errorf("HasPrefix of own prefix length %d failed", k)
		}
	}
	if a.HasPrefix(MustParse("011")) {
		t.Error("HasPrefix false positive")
	}
	if a.HasPrefix(MustParse("0100110")) {
		t.Error("longer string cannot be a prefix")
	}
}

func TestConcatAppendBit(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		a := randBits(r, 130)
		b := randBits(r, 130)
		if got, want := Concat(MustParse(a), MustParse(b)).String(), a+b; got != want {
			t.Fatalf("Concat(%q,%q) = %q", a, b, got)
		}
	}
	if got := MustParse("01").AppendBit(1).String(); got != "011" {
		t.Errorf("AppendBit = %q", got)
	}
}

func TestBuilderAppendUint(t *testing.T) {
	var b Builder
	b.AppendUint(0b1011, 4) // LSB first: 1,1,0,1
	if got := b.BitString().String(); got != "1101" {
		t.Errorf("AppendUint = %q, want 1101", got)
	}
	var c Builder
	c.AppendUint(^uint64(0), 64)
	if got := c.BitString(); got.Len() != 64 || got.String() != strings.Repeat("1", 64) {
		t.Errorf("AppendUint 64 ones = %q", got.String())
	}
}

func TestBuilderMixedAlignment(t *testing.T) {
	// Append across word boundaries in all alignments.
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		var parts []string
		var b Builder
		for j := 0; j < 5; j++ {
			p := randBits(r, 90)
			parts = append(parts, p)
			b.Append(MustParse(p))
		}
		want := strings.Join(parts, "")
		if got := b.BitString().String(); got != want {
			t.Fatalf("builder mixed append = %q want %q", got, want)
		}
	}
}

func TestBuilderAppendRun(t *testing.T) {
	var b Builder
	var want strings.Builder
	for i, n := range []int{0, 1, 62, 64, 3, 130, 0, 191} {
		bit := byte(i & 1)
		b.AppendRun(bit, n)
		want.WriteString(strings.Repeat(string('0'+bit), n))
	}
	if got := b.BitString().String(); got != want.String() {
		t.Fatalf("runs = %q want %q", got, want.String())
	}
}

func TestFromWords(t *testing.T) {
	w := []uint64{0b1011, 0}
	bs := FromWords(w, 70)
	if bs.Bit(0) != 1 || bs.Bit(1) != 1 || bs.Bit(2) != 0 || bs.Bit(3) != 1 {
		t.Error("FromWords bit order wrong")
	}
	// Mutating the source must not affect the BitString.
	w[0] = 0
	if bs.Bit(0) != 1 {
		t.Error("FromWords must copy its input")
	}
}

func TestWordsTailIsMasked(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 7; i++ {
		b.AppendBit(1)
	}
	bs := b.BitString()
	if bs.Words()[0] != 0x7f {
		t.Errorf("tail not masked: %x", bs.Words()[0])
	}
}

func TestQuickSubConcatIdentity(t *testing.T) {
	// Property: for any split point k, Concat(Prefix(k), Suffix(k)) == s.
	f := func(raw []byte, k8 uint8) bool {
		var b Builder
		for _, c := range raw {
			b.AppendUint(uint64(c), 8)
		}
		s := b.BitString()
		if s.Len() == 0 {
			return true
		}
		k := int(k8) % (s.Len() + 1)
		return Equal(Concat(s.Prefix(k), s.Suffix(k)), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickLCPSymmetricAndBounded(t *testing.T) {
	f := func(a, b []byte) bool {
		x := Encode(a)
		y := Encode(b)
		l := LCP(x, y)
		if l != LCP(y, x) {
			return false
		}
		if l > x.Len() || l > y.Len() {
			return false
		}
		// Bits below l must agree; bit l (if both exist) must differ.
		for i := 0; i < l; i++ {
			if x.Bit(i) != y.Bit(i) {
				return false
			}
		}
		if l < x.Len() && l < y.Len() && x.Bit(l) == y.Bit(l) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
