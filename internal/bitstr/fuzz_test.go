package bitstr

import (
	"bytes"
	"testing"
)

// FuzzEncodeDecode: Encode∘Decode must be the identity for every byte
// string, and the encoding must stay prefix-free against a mutation.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello"))
	f.Add([]byte{0, 0xff, 0, 1})
	f.Add(bytes.Repeat([]byte{0xaa}, 100))
	f.Fuzz(func(t *testing.T, s []byte) {
		e := encodeBytes(s)
		got, err := Decode(e)
		if err != nil {
			t.Fatalf("Decode(EncodeString(%x)): %v", s, err)
		}
		if !bytes.Equal(got, s) && !(len(got) == 0 && len(s) == 0) {
			t.Fatalf("round trip %x -> %x", s, got)
		}
		// Any extension of s must encode to something that e is NOT a
		// prefix of being violated: EncodeString(s) must not prefix EncodeString(s+x).
		ext := encodeBytes(append(append([]byte{}, s...), 'x'))
		if hasPrefix(ext, e) || hasPrefix(e, ext) {
			t.Fatalf("prefix-freeness violated for %x", s)
		}
	})
}

// FuzzDecodeMalformed: Decode must reject or round-trip, never panic.
func FuzzDecodeMalformed(f *testing.F) {
	f.Add([]byte{0x03}, 3)
	f.Add([]byte{0xff, 0xff}, 11)
	f.Fuzz(func(t *testing.T, raw []byte, n int) {
		if n < 0 || n > len(raw)*8 {
			return
		}
		words := make([]uint64, (len(raw)+7)/8)
		for i, b := range raw {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		bs := FromWords(words, n)
		if dec, err := Decode(bs); err == nil {
			// Valid decodes must re-encode to the identical bit string.
			if Compare(encodeBytes(dec), bs) != 0 {
				t.Fatalf("decode/encode disagreement on %q", bs.String())
			}
		}
	})
}
