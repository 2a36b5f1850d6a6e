// Package seqstore defines the shared indexed-sequence-of-strings
// query surface (paper §1) that the comparison baselines in its
// subpackages — flat scan, B-tree index, text index — and the public
// Wavelet Trie variants all satisfy. Benchmarks and differential tests
// program against Sequence instead of concrete types, so a store can be
// swapped (or reopened from a snapshot) without touching the harness.
package seqstore

import (
	wavelettrie "repro"
	"repro/internal/seqstore/btindex"
	"repro/internal/seqstore/flat"
	"repro/internal/seqstore/textindex"
)

// Sequence is the primitive query surface of an indexed sequence of
// strings, plus the measured footprint every comparison reports.
type Sequence interface {
	Len() int
	Access(pos int) string
	Rank(s string, pos int) int
	Select(s string, idx int) (pos int, ok bool)
	RankPrefix(p string, pos int) int
	SelectPrefix(p string, idx int) (pos int, ok bool)
	SizeBits() int
}

// Appendable is a Sequence that can grow at the end.
type Appendable interface {
	Sequence
	Append(s string)
}

// Compile-time conformance: the three baselines and every string-serving
// Wavelet Trie variant present the same surface.
var (
	_ Appendable = (*flat.Store)(nil)
	_ Appendable = (*btindex.Index)(nil)
	_ Sequence   = (*textindex.Index)(nil)

	_ Appendable = (*wavelettrie.AppendOnly)(nil)
	_ Appendable = (*wavelettrie.Dynamic)(nil)
	_ Sequence   = (*wavelettrie.Frozen)(nil)
)
