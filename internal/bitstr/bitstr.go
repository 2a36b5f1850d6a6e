// Package bitstr implements immutable binary strings with bit-granularity
// operations: indexing, substring extraction, longest-common-prefix,
// lexicographic comparison and concatenation.
//
// Bit strings are the alphabet of the Wavelet Trie (paper §2, §3): user
// byte strings are binarized into prefix-free bit strings, Patricia trie
// labels are bit strings, and every traversal decision reads one bit.
//
// Bits are indexed 0..Len()-1 from the logical start of the string. The
// underlying storage packs bit i into word i/64 at offset i%64 (LSB-first),
// which makes word-parallel LCP and comparison cheap with bits.TrailingZeros.
package bitstr

import (
	"fmt"
	"math/bits"
	"strings"
)

// BitString is an immutable sequence of bits. The zero value is the empty
// string. BitString values are safe to share between goroutines; all
// "mutating" operations return new values.
type BitString struct {
	words []uint64
	n     int // length in bits
}

// Empty is the bit string of length zero.
var Empty = BitString{}

// New constructs a BitString from individual bits, where each byte must be
// 0 or 1. It panics on any other value: callers control their inputs here,
// and a silent coercion would hide logic bugs in trie construction.
func New(bitvals ...byte) BitString {
	b := NewBuilder(len(bitvals))
	for _, v := range bitvals {
		switch v {
		case 0:
			b.AppendBit(0)
		case 1:
			b.AppendBit(1)
		default:
			panic(fmt.Sprintf("bitstr: New: bit value %d out of range", v))
		}
	}
	return b.BitString()
}

// Parse converts a textual bit pattern such as "0100" into a BitString.
// Characters other than '0' and '1' yield an error. Parse("") is Empty.
func Parse(s string) (BitString, error) {
	b := NewBuilder(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
			b.AppendBit(0)
		case '1':
			b.AppendBit(1)
		default:
			return BitString{}, fmt.Errorf("bitstr: Parse: invalid character %q at index %d", s[i], i)
		}
	}
	return b.BitString(), nil
}

// MustParse is Parse for constant patterns in tests and examples; it panics
// on malformed input.
func MustParse(s string) BitString {
	bs, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return bs
}

// FromWords constructs a BitString of length n bits backed by a copy of the
// given words (bit i of the result is bit i%64 of words[i/64]). Bits at
// positions >= n in the last word are ignored.
func FromWords(words []uint64, n int) BitString {
	if n < 0 || n > len(words)*64 {
		panic(fmt.Sprintf("bitstr: FromWords: length %d out of range for %d words", n, len(words)))
	}
	nw := wordsFor(n)
	w := make([]uint64, nw)
	copy(w, words[:nw])
	maskTail(w, n)
	return BitString{words: w, n: n}
}

// FromWordsShared constructs a BitString of length n bits that aliases the
// given words without copying. The caller must guarantee that the words are
// never modified afterwards and that bits at positions >= n in the last
// word are already zero (the clean-tail invariant every encoder in this
// module maintains). It exists for zero-copy decoding over memory-mapped
// files; use FromWords anywhere those guarantees are not airtight.
func FromWordsShared(words []uint64, n int) BitString {
	if n < 0 || n > len(words)*64 {
		panic(fmt.Sprintf("bitstr: FromWordsShared: length %d out of range for %d words", n, len(words)))
	}
	return BitString{words: words[:wordsFor(n)], n: n}
}

// Len returns the number of bits.
func (s BitString) Len() int { return s.n }

// IsEmpty reports whether the string has length zero.
func (s BitString) IsEmpty() bool { return s.n == 0 }

// Bit returns bit i (0 or 1). It panics if i is out of range.
func (s BitString) Bit(i int) byte {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitstr: Bit index %d out of range [0,%d)", i, s.n))
	}
	return byte(s.words[i>>6]>>(uint(i)&63)) & 1
}

// Words returns the packed representation. The returned slice must not be
// modified; it aliases the string's storage. Bits past Len() in the final
// word are zero.
func (s BitString) Words() []uint64 { return s.words }

// Sub returns the substring of bits [from, to). It panics if the range is
// invalid. The result is an independent copy.
func (s BitString) Sub(from, to int) BitString {
	if from < 0 || to > s.n || from > to {
		panic(fmt.Sprintf("bitstr: Sub range [%d,%d) out of range [0,%d]", from, to, s.n))
	}
	n := to - from
	if n == 0 {
		return Empty
	}
	w := make([]uint64, wordsFor(n))
	for i := range w {
		w[i] = read64(s.words, from+i*64)
	}
	maskTail(w, n)
	return BitString{words: w, n: n}
}

// Prefix returns the first k bits.
func (s BitString) Prefix(k int) BitString { return s.Sub(0, k) }

// Suffix returns the bits from position k to the end.
func (s BitString) Suffix(k int) BitString { return s.Sub(k, s.n) }

// LCP returns the length in bits of the longest common prefix of s and t.
func LCP(s, t BitString) int { return LCPAt(s.words, 0, t.words, 0, min(s.n, t.n)) }

// read64 returns the 64 bits that start at bit position pos of the packed
// words, zero-filled past their end. pos must lie inside the words.
func read64(words []uint64, pos int) uint64 {
	wi, off := pos>>6, uint(pos)&63
	v := words[wi] >> off
	if off != 0 && wi+1 < len(words) {
		v |= words[wi+1] << (64 - off)
	}
	return v
}

// LCPAt returns the length of the longest common prefix of two n-bit runs
// inside packed word arrays: the one starting at bit aOff of a and the
// one starting at bit bOff of b. It compares in place, a word at a time,
// whatever the two alignments; both runs must lie inside their arrays.
func LCPAt(a []uint64, aOff int, b []uint64, bOff int, n int) int {
	for i := 0; i < n; i += 64 {
		if d := read64(a, aOff+i) ^ read64(b, bOff+i); d != 0 {
			return min(i+bits.TrailingZeros64(d), n)
		}
	}
	return n
}

// EqualAt reports whether the two n-bit runs (see LCPAt) are equal.
func EqualAt(a []uint64, aOff int, b []uint64, bOff int, n int) bool {
	return LCPAt(a, aOff, b, bOff, n) == n
}

// HasPrefix reports whether p is a prefix of s.
func (s BitString) HasPrefix(p BitString) bool {
	return p.n <= s.n && LCP(s, p) == p.n
}

// Equal reports whether s and t are the same bit string.
func Equal(s, t BitString) bool {
	return s.n == t.n && LCP(s, t) == s.n
}

// Compare orders bit strings lexicographically with 0 < 1, and a proper
// prefix ordering before any extension (the usual dictionary order). It
// returns -1, 0, or +1.
func Compare(s, t BitString) int {
	l := LCP(s, t)
	switch {
	case l == s.n && l == t.n:
		return 0
	case l == s.n:
		return -1
	case l == t.n:
		return 1
	case s.Bit(l) < t.Bit(l):
		return -1
	default:
		return 1
	}
}

// Concat returns the concatenation s·t.
func Concat(s, t BitString) BitString {
	b := NewBuilder(s.n + t.n)
	b.Append(s)
	b.Append(t)
	return b.BitString()
}

// AppendBit returns s with one extra bit at the end.
func (s BitString) AppendBit(bit byte) BitString {
	b := NewBuilder(s.n + 1)
	b.Append(s)
	b.AppendBit(bit)
	return b.BitString()
}

// String renders the bits as a '0'/'1' text string, most significant
// (first) bit leftmost — matching the figures in the paper.
func (s BitString) String() string {
	var sb strings.Builder
	sb.Grow(s.n)
	for i := 0; i < s.n; i++ {
		sb.WriteByte('0' + s.Bit(i))
	}
	return sb.String()
}

// GoString implements fmt.GoStringer for readable %#v output in tests.
func (s BitString) GoString() string { return "bitstr.MustParse(\"" + s.String() + "\")" }

func wordsFor(n int) int { return (n + 63) >> 6 }

// maskTail zeroes bits at positions >= n in w so that Equal/LCP can compare
// whole words.
func maskTail(w []uint64, n int) {
	if r := uint(n) & 63; r != 0 && len(w) > 0 {
		w[len(w)-1] &= (1 << r) - 1
	}
}

// A Builder incrementally assembles a BitString. The zero value is ready to
// use. Builders must not be used from multiple goroutines concurrently.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for sizeHint bits.
func NewBuilder(sizeHint int) *Builder {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Builder{words: make([]uint64, 0, wordsFor(sizeHint))}
}

// BuilderOver returns an empty Builder that fills buf's backing array
// before allocating — for assembling a short bit string in a caller's
// stack buffer. buf's length is ignored; its capacity is what counts.
func BuilderOver(buf []uint64) Builder { return Builder{words: buf[:0]} }

// Len returns the number of bits appended so far.
func (b *Builder) Len() int { return b.n }

// AppendBit appends a single bit (0 or 1).
func (b *Builder) AppendBit(bit byte) {
	if b.n&63 == 0 {
		b.words = append(b.words, 0)
	}
	if bit != 0 {
		b.words[b.n>>6] |= 1 << (uint(b.n) & 63)
	}
	b.n++
}

// AppendUint appends the low nbits bits of v, least significant bit first
// (bit 0 of v becomes the first appended bit).
func (b *Builder) AppendUint(v uint64, nbits int) {
	if nbits < 0 || nbits > 64 {
		panic(fmt.Sprintf("bitstr: AppendUint: nbits %d out of range", nbits))
	}
	if nbits == 0 {
		return
	}
	if nbits < 64 {
		v &= 1<<uint(nbits) - 1
	}
	off := uint(b.n) & 63
	if off == 0 {
		b.words = append(b.words, v)
	} else {
		b.words[len(b.words)-1] |= v << off
		if int(off)+nbits > 64 {
			b.words = append(b.words, v>>(64-off))
		}
	}
	b.n += nbits
}

// AppendRun appends n copies of bit, a word at a time.
func (b *Builder) AppendRun(bit byte, n int) {
	var fill uint64
	if bit != 0 {
		fill = ^uint64(0)
	}
	for ; n >= 64; n -= 64 {
		b.AppendUint(fill, 64)
	}
	b.AppendUint(fill, n)
}

// AppendRange appends the n bits that start at bit position from of the
// packed words (bit i of a packed array is bit i%64 of words[i/64]),
// a word at a time whatever the source and builder alignments. The range
// must lie inside words. It is how label ranges are copied straight out
// of a concatenated label stream.
func (b *Builder) AppendRange(words []uint64, from, n int) {
	if from < 0 || n < 0 || from+n > len(words)*64 {
		panic(fmt.Sprintf("bitstr: AppendRange [%d,+%d) out of range for %d words", from, n, len(words)))
	}
	i := 0
	if b.n&63 == 0 && from&63 == 0 {
		// Both aligned: bulk-copy the whole words.
		whole := n >> 6
		b.words = append(b.words, words[from>>6:from>>6+whole]...)
		b.n += whole << 6
		i = whole << 6
	}
	for ; i < n; i += 64 {
		b.AppendUint(read64(words, from+i), min(64, n-i))
	}
}

// AppendWords appends the first nbits bits of the packed words. This is
// the bulk path the streaming freeze builder uses to concatenate per-node
// bitvectors.
func (b *Builder) AppendWords(words []uint64, nbits int) { b.AppendRange(words, 0, nbits) }

// Append appends all bits of s.
func (b *Builder) Append(s BitString) { b.AppendRange(s.words, 0, s.n) }

// BitString returns the accumulated bits. The Builder may continue to be
// used afterwards; the returned value does not alias future appends.
func (b *Builder) BitString() BitString {
	w := make([]uint64, wordsFor(b.n))
	copy(w, b.words)
	maskTail(w, b.n)
	return BitString{words: w, n: b.n}
}

// Reset empties the builder while keeping its backing storage, so a single
// scratch builder can be reused across many elements of a streaming pass
// without reallocating.
func (b *Builder) Reset() {
	b.words = b.words[:0]
	b.n = 0
}

// View returns the accumulated bits as a BitString that aliases the
// builder's storage. It is valid only until the next append or Reset; use
// BitString for a durable copy. Builders keep bits past Len() zeroed, so
// the view satisfies the clean-tail invariant Equal/LCP rely on.
func (b *Builder) View() BitString {
	return BitString{words: b.words[:wordsFor(b.n)], n: b.n}
}
