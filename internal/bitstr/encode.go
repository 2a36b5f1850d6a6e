package bitstr

import (
	"fmt"
	"math/bits"
)

// Binarization of byte strings (paper §2, §3).
//
// Definition 3.1 requires the underlying string set Sset to be prefix-free.
// The paper obtains this by "appending a terminator symbol to each string".
// We encode each byte b as the 9 bits  1·b7·b6·…·b0  (a 1 flag followed by
// the byte MSB-first) and terminate the whole string with a single 0 bit:
//
//	Encode("ab") = 1 01100001 1 01100010 0
//
// Properties relied on throughout the repository:
//
//  1. Prefix-freeness: every encoding ends with the only 0 flag bit, so no
//     encoding is a proper prefix of another.
//  2. Prefix transparency: p is a byte-prefix of s  ⇔  EncodePrefix(p) is a
//     bit-prefix of Encode(s). RankPrefix/SelectPrefix on user strings
//     therefore reduce directly to bit-prefix operations on the trie.
//  3. Order preservation: Encode preserves lexicographic byte order (the
//     flag bits compare equal; bytes are emitted MSB-first; at the first
//     byte difference the MSB-first bits decide the order the same way the
//     bytes do, and a shorter string's 0 terminator sorts before any
//     continuation's 1 flag).

// Encode binarizes a byte string into the prefix-free bit-string alphabet.
// Every distinct byte string maps to a distinct bit string and the set of
// all encodings is prefix-free.
func Encode(s []byte) BitString { return encode(nil, string(s), true) }

// EncodeString is Encode for Go strings.
func EncodeString(s string) BitString { return encode(nil, s, true) }

// EncodePrefix binarizes a byte string *without* the terminator, producing
// the bit string that is a prefix of Encode(s) for every s having p as a
// byte prefix. Use it to form RankPrefix/SelectPrefix arguments.
func EncodePrefix(p []byte) BitString { return encode(nil, string(p), false) }

// EncodePrefixString is EncodePrefix for Go strings.
func EncodePrefixString(p string) BitString { return encode(nil, p, false) }

// KeyWords is the stack-buffer size, in words, that holds the encoding of
// any key of up to 256 bytes (9 bits a byte plus the terminator).
const KeyWords = (256*9 + 1 + 63) / 64

// EncodeStringInto is EncodeString writing into buf's backing array when
// the encoding fits its capacity (allocating otherwise): with a
// [KeyWords]uint64 on the caller's stack, encoding a query key of up to
// 256 bytes allocates nothing. The result aliases buf.
func EncodeStringInto(buf []uint64, s string) BitString { return encode(buf[:0], s, true) }

// EncodePrefixStringInto is EncodePrefixString in the EncodeStringInto form.
func EncodePrefixStringInto(buf []uint64, p string) BitString { return encode(buf[:0], p, false) }

// encode appends the binarization of s to dst (empty, any capacity): nine
// bits per byte — the 1 flag, then the byte MSB-first, which LSB-first
// packing makes its bit reversal — gathered in a 64-bit accumulator.
func encode(dst []uint64, s string, terminate bool) BitString {
	n := 9 * len(s)
	if terminate {
		n++
	}
	if cap(dst) < wordsFor(n) {
		dst = make([]uint64, 0, wordsFor(n))
	}
	var acc uint64
	fill := uint(0) // bits of acc in use, always < 64
	for i := 0; i < len(s); i++ {
		v := 1 | uint64(bits.Reverse8(s[i]))<<1
		acc |= v << fill
		if fill += 9; fill >= 64 {
			dst = append(dst, acc)
			fill -= 64
			acc = v >> (9 - fill)
		}
	}
	// The terminator is a 0 bit: it only lengthens the string.
	if len(dst) < wordsFor(n) {
		dst = append(dst, acc)
	}
	return BitString{words: dst, n: n}
}

// Decode inverts Encode. It returns an error if bs is not a complete,
// well-formed encoding (wrong length, missing terminator, or trailing bits).
func Decode(bs BitString) ([]byte, error) {
	return AppendDecoded(make([]byte, 0, bs.Len()/9), bs)
}

// DecodeString is Decode returning a Go string.
func DecodeString(bs BitString) (string, error) {
	var buf [128]byte // most values decode on the stack: one copy into the string
	b, err := AppendDecoded(buf[:0], bs)
	return string(b), err
}

// AppendDecoded is Decode appending the bytes bs encodes to out, nine bits
// at a time. On error it returns nil.
func AppendDecoded(out []byte, bs BitString) ([]byte, error) {
	i := 0
	for ; i+9 <= bs.n; i += 9 {
		v := read64(bs.words, i)
		if v&1 == 0 {
			break
		}
		out = append(out, bits.Reverse8(byte(v>>1)))
	}
	switch {
	case i >= bs.n:
		return nil, fmt.Errorf("bitstr: Decode: missing terminator at bit %d", i)
	case bs.Bit(i) == 1:
		return nil, fmt.Errorf("bitstr: Decode: truncated byte at bit %d", i+1)
	case i+1 != bs.n:
		return nil, fmt.Errorf("bitstr: Decode: %d trailing bits after terminator", bs.n-i-1)
	}
	return out, nil
}
