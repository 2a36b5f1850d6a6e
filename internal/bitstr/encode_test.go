package bitstr

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]byte{nil, {}, []byte("a"), []byte("abc"), {0}, {0, 0, 255}, []byte("http://a/b")}
	for _, c := range cases {
		bs := encodeBytes(c)
		if bs.Len() != 9*len(c)+1 {
			t.Errorf("EncodeString(%q) length %d, want %d", c, bs.Len(), 9*len(c)+1)
		}
		got, err := Decode(bs)
		if err != nil {
			t.Fatalf("Decode(EncodeString(%q)): %v", c, err)
		}
		if !bytes.Equal(got, c) && !(len(got) == 0 && len(c) == 0) {
			t.Errorf("round trip %q -> %q", c, got)
		}
	}
}

func TestEncodeKnownPattern(t *testing.T) {
	// 'a' = 0x61 = 01100001; expect 1 01100001 0.
	if got := EncodeString("a").String(); got != "1011000010" {
		t.Errorf("EncodeString(a) = %q", got)
	}
	if got := EncodePrefixString("a").String(); got != "101100001" {
		t.Errorf("EncodePrefixString(a) = %q", got)
	}
	if got := EncodeString("").String(); got != "0" {
		t.Errorf("EncodeString(empty) = %q", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	// Missing terminator, truncated byte, flag+byte without terminator,
	// trailing bits after terminator, trailing bit after full encoding.
	for _, s := range []string{"", "1", "101100001", "01", "10110000101"} {
		if _, err := Decode(MustParse(s)); err == nil {
			t.Errorf("Decode(%q) should fail", s)
		}
	}
}

func TestPrefixTransparency(t *testing.T) {
	// p byte-prefix of s  <=>  EncodePrefixString(p) bit-prefix of EncodeString(s).
	r := rand.New(rand.NewSource(7))
	alpha := []byte("ab")
	randStr := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[r.Intn(len(alpha))]
		}
		return b
	}
	for i := 0; i < 2000; i++ {
		s := randStr(r.Intn(8))
		p := randStr(r.Intn(8))
		want := bytes.HasPrefix(s, p)
		got := hasPrefix(encodeBytes(s), encodePrefixBytes(p))
		if got != want {
			t.Fatalf("prefix transparency broken: s=%q p=%q got=%v want=%v", s, p, got, want)
		}
	}
}

func TestPrefixFreeProperty(t *testing.T) {
	// No encoding is a proper prefix of another distinct encoding.
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ea, eb := encodeBytes(a), encodeBytes(b)
		return !hasPrefix(ea, eb) && !hasPrefix(eb, ea)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodePreservesOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	words := make([][]byte, 200)
	for i := range words {
		n := r.Intn(10)
		w := make([]byte, n)
		for j := range w {
			w[j] = byte(r.Intn(256))
		}
		words[i] = w
	}
	byBytes := make([][]byte, len(words))
	copy(byBytes, words)
	sort.Slice(byBytes, func(i, j int) bool { return bytes.Compare(byBytes[i], byBytes[j]) < 0 })
	byBits := make([][]byte, len(words))
	copy(byBits, words)
	sort.Slice(byBits, func(i, j int) bool { return Compare(encodeBytes(byBits[i]), encodeBytes(byBits[j])) < 0 })
	for i := range byBytes {
		if !bytes.Equal(byBytes[i], byBits[i]) {
			t.Fatalf("order not preserved at %d: bytes=%q bits=%q", i, byBytes[i], byBits[i])
		}
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(s []byte) bool {
		got, err := Decode(encodeBytes(s))
		if err != nil {
			return false
		}
		return bytes.Equal(got, s) || (len(got) == 0 && len(s) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func encodeBytes(s []byte) BitString       { return EncodeString(string(s)) }
func encodePrefixBytes(p []byte) BitString { return EncodePrefixString(string(p)) }

// hasPrefix reports whether p is a prefix of s.
func hasPrefix(s, p BitString) bool { return p.Len() <= s.Len() && LCP(s, p) == p.Len() }
