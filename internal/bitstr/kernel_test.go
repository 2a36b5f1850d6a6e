package bitstr

import (
	"math/rand"
	"strings"
	"testing"
)

// randomBitText returns n random '0'/'1' characters.
func randomBitText(r *rand.Rand, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte('0' + byte(r.Intn(2)))
	}
	return sb.String()
}

// TestLCPAtAllAlignments compares two runs in place at every pair of
// start alignments, for equal runs and for runs that first differ at
// every distance up to past a word boundary — against the textual
// definition.
func TestLCPAtAllAlignments(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	const run = 150 // spans three words at any alignment
	for aOff := 0; aOff < 64; aOff++ {
		for bOff := 0; bOff < 64; bOff++ {
			common := randomBitText(r, run)
			diffAt := r.Intn(run + 1) // run = no difference
			other := []byte(common)
			if diffAt < run {
				other[diffAt] ^= 1
			}
			a := MustParse(randomBitText(r, aOff) + common + randomBitText(r, 9))
			b := MustParse(randomBitText(r, bOff) + string(other) + randomBitText(r, 70))
			if got := LCPAt(a.Words(), aOff, b.Words(), bOff, run); got != diffAt {
				t.Fatalf("aOff=%d bOff=%d: LCPAt=%d want %d", aOff, bOff, got, diffAt)
			}
			if got := EqualAt(a.Words(), aOff, b.Words(), bOff, run); got != (diffAt == run) {
				t.Fatalf("aOff=%d bOff=%d: EqualAt=%v with difference at %d", aOff, bOff, got, diffAt)
			}
			// A shorter compare that stops before the difference is equal.
			if n := diffAt; !EqualAt(a.Words(), aOff, b.Words(), bOff, n) {
				t.Fatalf("aOff=%d bOff=%d: first %d bits should be equal", aOff, bOff, n)
			}
		}
	}
	if !EqualAt(nil, 0, nil, 0, 0) {
		t.Fatal("two empty runs are equal")
	}
}

// TestAppendAllAlignments appends a range taken at every source
// alignment onto a builder at every destination alignment — through
// Append, AppendWords and AppendRange — and checks the text, the length
// and the clean-tail invariant.
func TestAppendAllAlignments(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for dst := 0; dst < 64; dst++ {
		for src := 0; src < 64; src++ {
			n := r.Intn(200)
			head := randomBitText(r, dst)
			lead := randomBitText(r, src)
			body := randomBitText(r, n)
			source := MustParse(lead + body + randomBitText(r, 5))

			b := NewBuilder(0)
			b.Append(MustParse(head))
			b.AppendRange(source.Words(), src, n)
			b.Append(MustParse(body))
			b.AppendWords(MustParse(body+"111").Words(), n) // bits past n must be ignored
			b.AppendBit(1)
			want := head + body + body + body + "1"
			got := b.BitString()
			if got.String() != want {
				t.Fatalf("dst=%d src=%d n=%d:\n got %s\nwant %s", dst, src, n, got.String(), want)
			}
			if !Equal(got, MustParse(want)) {
				t.Fatalf("dst=%d src=%d n=%d: tail not clean (Equal fails on equal text)", dst, src, n)
			}
			if v := b.View(); !Equal(v, got) {
				t.Fatalf("dst=%d src=%d: View differs from BitString", dst, src)
			}
		}
	}
}

func TestAppendRangePanics(t *testing.T) {
	words := []uint64{1, 2}
	for _, c := range [][2]int{{-1, 3}, {0, 129}, {100, 29}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRange(%d,%d) did not panic", c[0], c[1])
				}
			}()
			NewBuilder(0).AppendRange(words, c[0], c[1])
		}()
	}
}

// naiveEncode is the definition of the binarization, a bit at a time.
func naiveEncode(s string, terminate bool) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		sb.WriteByte('1')
		for k := 7; k >= 0; k-- {
			sb.WriteByte('0' + s[i]>>uint(k)&1)
		}
	}
	if terminate {
		sb.WriteByte('0')
	}
	return sb.String()
}

// TestEncodeAgainstDefinition checks the nine-bits-a-byte encoder and
// the decoder against the bit-at-a-time definition: every byte value,
// every length around the word boundaries (7 bytes fill 63 bits), the
// stack-buffer form below, at and above KeyWords.
func TestEncodeAgainstDefinition(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	var inputs []string
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	inputs = append(inputs, "", string(all), strings.Repeat("\x00", 9), strings.Repeat("\xff", 15))
	for n := 1; n <= 40; n++ {
		b := make([]byte, n)
		r.Read(b)
		inputs = append(inputs, string(b))
	}
	for _, n := range []int{255, 256, 257, 1000} {
		b := make([]byte, n)
		r.Read(b)
		inputs = append(inputs, string(b))
	}
	var buf [KeyWords]uint64
	for _, s := range inputs {
		for i := range buf {
			buf[i] = ^uint64(0) // stale contents must not leak into the encoding
		}
		want, wantP := naiveEncode(s, true), naiveEncode(s, false)
		for name, got := range map[string]BitString{
			"EncodeString":           EncodeString(s),
			"Encode":                 Encode([]byte(s)),
			"EncodeStringInto":       EncodeStringInto(buf[:], s),
			"EncodeStringInto(nil)":  EncodeStringInto(nil, s),
			"EncodePrefixStringInto": EncodePrefixStringInto(make([]uint64, 3), s),
		} {
			w := want
			if name == "EncodePrefixStringInto" {
				w = wantP
			}
			if got.String() != w || !Equal(got, MustParse(w)) {
				t.Fatalf("%s(%d bytes) differs from the definition", name, len(s))
			}
		}
		if got := EncodePrefixString(s); got.String() != wantP {
			t.Fatalf("EncodePrefixString(%d bytes) differs from the definition", len(s))
		}
		if back, err := DecodeString(MustParse(want)); err != nil || back != s {
			t.Fatalf("DecodeString(%d bytes): %q, %v", len(s), back, err)
		}
		if back, err := Decode(EncodeString(s)); err != nil || string(back) != s {
			t.Fatalf("Decode(%d bytes): %v", len(s), err)
		}
	}
	if len(inputs[1]) <= 256 {
		// A 256-byte key fits the stack buffer exactly.
		if got := EncodeStringInto(buf[:], inputs[1]); &got.Words()[0] != &buf[0] {
			t.Fatal("a 256-byte key did not encode into the caller's buffer")
		}
	}
}

// TestDecodeRejectsMalformed feeds the decoder every way an encoding can
// be wrong.
func TestDecodeRejectsMalformed(t *testing.T) {
	for name, bitsText := range map[string]string{
		"empty":           "",
		"no terminator":   naiveEncode("ab", false),
		"truncated byte":  naiveEncode("ab", false) + "1010",
		"trailing bits":   naiveEncode("ab", true) + "0",
		"trailing byte":   naiveEncode("a", true) + naiveEncode("b", true),
		"flag only":       "1",
		"eight data bits": "10110001",
	} {
		if _, err := Decode(MustParse(bitsText)); err == nil {
			t.Errorf("%s: Decode accepted %q", name, bitsText)
		}
	}
}
