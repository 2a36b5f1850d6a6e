package wavelettrie

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/succinct"
)

// Frozen is a static Wavelet Trie in the paper's §3 fully-succinct
// encoding: the trie's shape at one bit a node, delimited concatenated
// labels and one concatenated RRR bitvector whose ranks count from each
// node's own segment — no pointers at all. It supports the five
// primitive operations at the same O(|s|+h_s) cost as Static, can be
// serialized byte-for-byte (MarshalBinary) and reloaded (LoadFrozen), and
// is the smallest representation in the repository.
type Frozen struct {
	t *succinct.Trie
	// backing, when non-nil, pins the memory region the trie's bit
	// components alias — e.g. an mmap'd file loaded by LoadFrozenMapped.
	// Holding the Frozen keeps the mapping alive; the region is reclaimed
	// by its finalizer once the Frozen is unreachable.
	backing any
}

func init() {
	succinct.Unwrap = func(frozen any) *succinct.Trie { return frozen.(*Frozen).t }
}

// Mapped reports whether this Frozen aliases an external memory region
// (an mmap'd file) instead of owning heap copies of its components.
func (f *Frozen) Mapped() bool { return f.backing != nil }

// Frozen returns the succinct encoding of this static trie (built on
// first use and cached).
func (s *Static) Frozen() *Frozen { return &Frozen{t: s.freeze()} }

// LoadFrozen reconstructs a Frozen from MarshalBinary output.
func LoadFrozen(data []byte) (*Frozen, error) { return loadAs[*Frozen](data, kindFrozen) }

// MarshalBinary serializes the succinct encoding into the unified
// container. The payload is the succinct representation itself minus
// its derived rank directories (rebuilt on load), so the on-disk size
// is slightly below SizeBits.
func (f *Frozen) MarshalBinary() ([]byte, error) { return marshal(kindFrozen, f.t.EncodeTo) }

// Len returns the number of elements.
func (f *Frozen) Len() int { return f.t.Len() }

// AlphabetSize returns the number of distinct strings.
func (f *Frozen) AlphabetSize() int { return f.t.AlphabetSize() }

// Height returns the maximum trie depth h.
func (f *Frozen) Height() int { return f.t.Height() }

// SizeBits returns the size of the succinct encoding in bits.
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
func (f *Frozen) Count(s string) int { return f.Rank(s, f.Len()) }

// CountPrefix returns the total elements with byte prefix p, at the
// same cost as Count.
func (f *Frozen) CountPrefix(p string) int { return f.RankPrefix(p, f.Len()) }

// Contains reports whether s occurs at all — cheaper than Count(s) > 0:
// a walk over the trie labels that touches no bitvector or directory
// beyond them.
func (f *Frozen) Contains(s string) bool {
	var buf [bitstr.KeyWords]uint64
	return f.t.ContainsBits(bitstr.EncodeStringInto(buf[:], s))
}

// decode turns a stored element's bits back into its string.
func decode(bs bitstr.BitString) string {
	s, err := bitstr.DecodeString(bs)
	if err != nil {
		panic("wavelettrie: internal corruption: " + err.Error())
	}
	return s
}

// Iterate streams the elements of positions [l, r) in order, stopping
// early if fn returns false. It walks the trie once with streaming
// bitvector iterators (one block visit per traversed node for the whole
// range instead of one Rank per node per element), so a full sweep is far
// cheaper than repeated Access — this is the enumeration layer that
// compaction and snapshot exports are built on. The only allocation per
// element is the string handed to fn.
func (f *Frozen) Iterate(l, r int, fn func(pos int, s string) bool) {
	if l < 0 || r < l || r > f.Len() {
		panic(fmt.Sprintf("wavelettrie: Iterate(%d,%d) out of range [0,%d]", l, r, f.Len()))
	}
	var buf [bitstr.KeyWords]uint64
	scratch := bitstr.BuilderOver(buf[:])
	it := f.t.Iter(l, r)
	defer it.Close()
	for it.Valid() {
		pos := it.Pos()
		scratch.Reset()
		it.NextInto(&scratch)
		if !fn(pos, decode(scratch.View())) {
			return
		}
	}
}

// EnumeratePrefix streams the elements with byte prefix p in position
// order, starting from the from-th (0-based) match; fn receives the match
// index, the position and val, which returns the match's value when
// called — positions-only consumers never pay for it — and is valid only
// during that call of fn. fn returns false to stop. The trie is descended
// once, to the prefix's node; each match is then one monotone select per
// level of the node's root path (a run of matches shares the decoded RRR
// blocks) and each value a streaming walk below the node, so a page of
// matches costs far less than SelectPrefix and Access per match. It
// returns CountPrefix(p), which the descent found on the way, and panics
// if from is negative.
func (f *Frozen) EnumeratePrefix(p string, from int, fn func(idx, pos int, val func() string) bool) (count int) {
	if from < 0 {
		panic(fmt.Sprintf("wavelettrie: EnumeratePrefix from %d negative", from))
	}
	var key [bitstr.KeyWords]uint64
	c := f.t.PrefixCursor(bitstr.EncodePrefixStringInto(key[:], p))
	count = c.Count()
	defer c.Close()
	c.Seek(from)
	idx := from
	var buf [128]byte // most values decode here: one copy into the string
	val := func() string { return string(c.AppendValue(buf[:0], idx)) }
	for ; ; idx++ {
		pos, ok := c.Next()
		if !ok || !fn(idx, pos, val) {
			return count
		}
	}
}

// Slice returns the elements of positions [l, r) as a fresh slice,
// materialized through Iterate.
func (f *Frozen) Slice(l, r int) []string {
	if l < 0 || r < l || r > f.Len() {
		panic(fmt.Sprintf("wavelettrie: Slice(%d,%d) out of range [0,%d]", l, r, f.Len()))
	}
	out := make([]string, 0, r-l)
	f.Iterate(l, r, func(_ int, s string) bool {
		out = append(out, s)
		return true
	})
	return out
}

// ConcatFrozen returns the Frozen of the concatenation of the parts'
// sequences, in argument order — the merge a compaction runs. It works on
// the structure, not the elements: the parts' tries are walked together in
// preorder, a node of the result takes its bitvector as the parts' node
// bitvectors one after the other (a constant run for a part that does not
// branch there), and no element is ever decoded. The result is
// byte-identical to NewStatic(concatenation).Frozen(). cont, when non-nil,
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
	return &Frozen{t: t}, nil
}

// Bounds returns the smallest and the largest stored string in
// lexicographic order (both "" for an empty index): two root-to-leaf walks
// over the labels, O(height) each.
func (f *Frozen) Bounds() (lo, hi string) {
	if f.Len() == 0 {
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
