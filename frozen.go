package wavelettrie

import (
	"fmt"
	"slices"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/succinct"
)

// Frozen is a static Wavelet Trie in the paper's §3 fully-succinct
// encoding: the trie's shape at one bit a node, delimited concatenated
// labels and one concatenated RRR bitvector whose ranks count from each
// node's own segment — no pointers at all. It supports the five
// primitive operations in O(|s|+h_s), can be serialized byte-for-byte
// (MarshalBinary) and reloaded (LoadFrozen), and is the smallest
// representation in the repository. It is the paper's static Wavelet Trie
// (NewStatic builds one) and carries the §5 range analytics, run by the
// one kernel the pointer tries share, over its node cursor.
type Frozen struct {
	// queries serves the range surface; the primitives below override it
	// with allocation-free forms.
	queries
	t *succinct.Trie
	// backing, when non-nil, pins the memory region the trie's bit
	// components alias — e.g. an mmap'd file loaded by LoadFrozenMapped.
	// Holding the Frozen keeps the mapping alive; the region is reclaimed
	// by its finalizer once the Frozen is unreachable.
	backing any
}

func newFrozen(t *succinct.Trie, backing any) *Frozen {
	return &Frozen{queries: queries{w: t}, t: t, backing: backing}
}

func init() {
	succinct.Unwrap = func(frozen any) *succinct.Trie { return frozen.(*Frozen).t }
}

// Mapped reports whether this Frozen holds a backing region (an mmap'd
// file) that its components alias.
func (f *Frozen) Mapped() bool { return f.backing != nil }

// LoadFrozen reconstructs a Frozen from MarshalBinary output.
func LoadFrozen(data []byte) (*Frozen, error) { return loadAs[*Frozen](data, kindFrozen) }

// MarshalBinary serializes the succinct encoding into the unified
// container. The payload is the succinct representation itself minus
// its derived rank directories (rebuilt on load), so the on-disk size
// is slightly below SizeBits.
func (f *Frozen) MarshalBinary() ([]byte, error) { return marshal(kindFrozen, f.t.EncodeTo) }

// SizeBits returns the measured in-memory footprint in bits of the §3
// encoding — the trie's shape, concatenated delimited labels and one
// concatenated RRR bitvector, with their directories.
func (f *Frozen) SizeBits() int { return f.t.SizeBits() }

// Access returns the string at position pos.
func (f *Frozen) Access(pos int) string {
	var buf [bitstr.KeyWords]uint64
	b := bitstr.BuilderOver(buf[:])
	f.t.AccessInto(&b, pos)
	s, err := bitstr.DecodeString(b.View())
	if err != nil {
		panic("wavelettrie: internal corruption: " + err.Error())
	}
	return s
}

// The keyed queries binarize their argument into a stack buffer: for keys
// of up to 256 bytes they allocate nothing.

// Rank counts occurrences of s in positions [0, pos).
func (f *Frozen) Rank(s string, pos int) int {
	var buf [bitstr.KeyWords]uint64
	return f.t.RankBits(bitstr.EncodeStringInto(buf[:], s), pos)
}

// Select returns the position of the idx-th (0-based) occurrence of s.
func (f *Frozen) Select(s string, idx int) (int, bool) {
	var buf [bitstr.KeyWords]uint64
	return f.t.SelectBits(bitstr.EncodeStringInto(buf[:], s), idx)
}

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (f *Frozen) RankPrefix(p string, pos int) int {
	var buf [bitstr.KeyWords]uint64
	return f.t.RankPrefixBits(bitstr.EncodePrefixStringInto(buf[:], p), pos)
}

// SelectPrefix returns the position of the idx-th element with prefix p.
func (f *Frozen) SelectPrefix(p string, idx int) (int, bool) {
	var buf [bitstr.KeyWords]uint64
	return f.t.SelectPrefixBits(bitstr.EncodePrefixStringInto(buf[:], p), idx)
}

// Count returns the total occurrences of s. It reads labels and
// directories only — no bitvector block is decoded.
func (f *Frozen) Count(s string) int { return f.Rank(s, f.t.Len()) }

// CountPrefix returns the total elements with byte prefix p, at the
// same cost as Count.
func (f *Frozen) CountPrefix(p string) int { return f.RankPrefix(p, f.t.Len()) }

// Contains reports whether s occurs at all — cheaper than Count(s) > 0:
// a walk over the trie labels that touches no bitvector or directory
// beyond them.
func (f *Frozen) Contains(s string) bool {
	var buf [bitstr.KeyWords]uint64
	return f.t.ContainsBits(bitstr.EncodeStringInto(buf[:], s))
}

// Enumerate streams the elements of positions [l, r) in order, stopping
// early if fn returns false: the trie extracts them a page at a time,
// top-down (succinct.Trie.Enumerate), and each distinct value of a page
// is made a string once, shared by the elements that hold it.
func (f *Frozen) Enumerate(l, r int, fn func(pos int, s string) bool) { f.t.Enumerate(l, r, fn) }

// EnumeratePrefix streams the elements with byte prefix p in position
// order, starting from the from-th (0-based) match; fn receives the match
// index, the position and val, which returns the match's value when
// called — positions-only consumers never pay for it — and is valid only
// during that call of fn. fn returns false to stop. The trie is descended
// once, to the prefix's node; each match is then one monotone select per
// level of the node's root path (a run of matches shares the decoded RRR
// blocks). The scan is a page of at most max matches (max ≥ 1): the
// first val called decodes the values of the page's matches from its own
// to the page's last in one top-down pass below the node, so a page of
// values costs far less than SelectPrefix and Access per match. It
// returns CountPrefix(p), which the descent found on the way, and panics
// if from is negative or max is below 1.
func (f *Frozen) EnumeratePrefix(p string, from, max int, fn func(idx, pos int, val func() string) bool) (count int) {
	if from < 0 {
		panic(fmt.Sprintf("wavelettrie: EnumeratePrefix from %d negative", from))
	}
	if max < 1 {
		panic(fmt.Sprintf("wavelettrie: EnumeratePrefix page of %d matches", max))
	}
	var key [bitstr.KeyWords]uint64
	c := f.t.PrefixCursor(bitstr.EncodePrefixStringInto(key[:], p))
	count = c.Count()
	defer c.Close()
	c.Seek(from)
	end := count
	if max < count-from {
		end = from + max
	}
	// vals holds the values of matches [lo, lo+len(vals)) once decoded.
	var js []int
	var vals []string
	idx, lo := from, from
	val := func() string {
		if idx >= lo+len(vals) {
			js = js[:0]
			for j := idx; j < end; j++ {
				js = append(js, j)
			}
			lo, vals = idx, slices.Grow(vals[:0], len(js))[:len(js)]
			c.Strings(js, vals)
		}
		return vals[idx-lo]
	}
	for ; idx < end; idx++ {
		pos, ok := c.Next()
		if !ok || !fn(idx, pos, val) {
			break
		}
	}
	return count
}

// ConcatFrozen returns the Frozen of the concatenation of the parts'
// sequences, in argument order — the merge a compaction runs. It works on
// the structure, not the elements: the parts' tries are walked together in
// preorder, a node of the result takes its bitvector as the parts' node
// bitvectors one after the other (a constant run for a part that does not
// branch there), and no element is ever decoded. The result is
// byte-identical to NewStatic(concatenation). cont, when non-nil,
// is polled along the way; once it reports false ConcatFrozen gives up
// with an error. Parts that disagree with themselves (a corrupt mapped
// file) or whose values together are not prefix-free are an error too.
func ConcatFrozen(cont func() bool, parts ...*Frozen) (*Frozen, error) {
	tries := make([]*succinct.Trie, len(parts))
	for i, f := range parts {
		tries[i] = f.t
	}
	t, err := succinct.Merge(cont, tries...)
	if err != nil {
		return nil, err
	}
	return newFrozen(t, nil), nil
}

// Bounds returns the smallest and the largest stored string in
// lexicographic order (both "" for an empty index): two root-to-leaf walks
// over the labels, O(height) each.
func (f *Frozen) Bounds() (lo, hi string) {
	if f.t.Len() == 0 {
		return "", ""
	}
	return f.edge(0), f.edge(1)
}

// edge decodes the leftmost (bit 0) or rightmost (bit 1) leaf's string.
func (f *Frozen) edge(bit byte) string {
	var buf [bitstr.KeyWords]uint64
	b := bitstr.BuilderOver(buf[:])
	f.t.EdgeInto(&b, bit)
	return decode(b.View())
}

// UnionAlphabetSize returns the number of distinct strings the indexes
// hold between them — the AlphabetSize of the concatenation of their
// sequences — by walking their trie shapes together: labels are compared,
// no bitvector is read and no element decoded, so the cost is
// proportional to the tries' node counts, not to their lengths. Indexes
// whose values together are not prefix-free, or a Frozen that disagrees
// with itself (a corrupt mapped file), are an error. The append-only
// indexes must not be appended to meanwhile.
func UnionAlphabetSize(frozen []*Frozen, appendOnly []*AppendOnly) (int, error) {
	tries := make([]*succinct.Trie, len(frozen))
	for i, f := range frozen {
		tries[i] = f.t
	}
	live := make([]*core.AppendOnly, len(appendOnly))
	for i, a := range appendOnly {
		live[i] = a.a
	}
	return succinct.UnionAlphabetSize(tries, live)
}
