package wavelettrie

import (
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/succinct"
)

// Distinct is one distinct string found by a range query, with its number
// of occurrences inside the queried window.
type Distinct struct {
	Value string
	Count int
}

// queries is the shared byte-string query surface; it adapts the
// bit-level core API through the prefix-free binarization of
// internal/bitstr, so user strings may contain arbitrary bytes.
type queries struct {
	w interface {
		Len() int
		AlphabetSize() int
		Height() int
		AvgHeight() float64
		TotalBitvectorBits() int
		LabelBits() int
		AccessBits(int) bitstr.BitString
		RankBits(bitstr.BitString, int) int
		SelectBits(bitstr.BitString, int) (int, bool)
		RankPrefixBits(bitstr.BitString, int) int
		SelectPrefixBits(bitstr.BitString, int) (int, bool)
		CountBits(bitstr.BitString) int
		CountPrefixBits(bitstr.BitString) int
		EnumerateBits(int, int, func(int, bitstr.BitString) bool)
		DistinctInRange(int, int) []core.DistinctResult
		RangeMajority(int, int) (bitstr.BitString, bool)
		RangeThreshold(int, int, int) []core.DistinctResult
		TopKInRange(int, int, int) []core.DistinctResult
		VisitBranches(int, int, func(bitstr.BitString, int, bool) bool)
	}
}

// Len returns the number of elements in the sequence.
func (q *queries) Len() int { return q.w.Len() }

// AlphabetSize returns |Sset|, the number of distinct strings currently
// stored.
func (q *queries) AlphabetSize() int { return q.w.AlphabetSize() }

// Height returns the maximum trie depth h (internal nodes on the longest
// root-to-leaf path).
func (q *queries) Height() int { return q.w.Height() }

// AvgHeight returns h̃, the average per-element trie depth
// (Definition 3.4) — the quantity the o(h̃n) redundancy bounds refer to.
func (q *queries) AvgHeight() float64 { return q.w.AvgHeight() }

// Access returns the string at position pos. It panics if pos is out of
// range, like a slice access.
func (q *queries) Access(pos int) string {
	s, err := bitstr.DecodeString(q.w.AccessBits(pos))
	if err != nil {
		panic("wavelettrie: internal corruption: " + err.Error())
	}
	return s
}

// Rank counts occurrences of s in positions [0, pos); pos may equal
// Len(). Strings never inserted have rank 0.
func (q *queries) Rank(s string, pos int) int {
	return q.w.RankBits(bitstr.EncodeString(s), pos)
}

// Count returns the total number of occurrences of s.
func (q *queries) Count(s string) int { return q.w.CountBits(bitstr.EncodeString(s)) }

// Select returns the position of the idx-th (0-based) occurrence of s,
// with ok=false when s occurs fewer than idx+1 times.
func (q *queries) Select(s string, idx int) (pos int, ok bool) {
	return q.w.SelectBits(bitstr.EncodeString(s), idx)
}

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (q *queries) RankPrefix(p string, pos int) int {
	return q.w.RankPrefixBits(bitstr.EncodePrefixString(p), pos)
}

// CountPrefix returns the total number of elements with byte prefix p.
func (q *queries) CountPrefix(p string) int {
	return q.w.CountPrefixBits(bitstr.EncodePrefixString(p))
}

// SelectPrefix returns the position of the idx-th (0-based) element with
// byte prefix p, with ok=false when there are not that many.
func (q *queries) SelectPrefix(p string, idx int) (pos int, ok bool) {
	return q.w.SelectPrefixBits(bitstr.EncodePrefixString(p), idx)
}

// Enumerate streams the elements of positions [l, r) in order — far
// cheaper than repeated Access (one Rank per trie node for the whole
// range instead of per element). Return false from fn to stop early.
func (q *queries) Enumerate(l, r int, fn func(pos int, s string) bool) {
	q.w.EnumerateBits(l, r, func(pos int, bs bitstr.BitString) bool {
		s, err := bitstr.DecodeString(bs)
		if err != nil {
			panic("wavelettrie: internal corruption: " + err.Error())
		}
		return fn(pos, s)
	})
}

// Slice returns the elements of positions [l, r) as a fresh slice.
func (q *queries) Slice(l, r int) []string {
	out := make([]string, 0, r-l)
	q.Enumerate(l, r, func(_ int, s string) bool {
		out = append(out, s)
		return true
	})
	return out
}

// DistinctInRange returns the distinct strings occurring in positions
// [l, r) with their in-range counts, in lexicographic order. Cost depends
// only on the distinct values, not on r-l.
func (q *queries) DistinctInRange(l, r int) []Distinct {
	return decodeDistinct(q.w.DistinctInRange(l, r))
}

// RangeMajority returns the string occurring more than (r-l)/2 times in
// [l, r), if one exists.
func (q *queries) RangeMajority(l, r int) (string, bool) {
	bs, ok := q.w.RangeMajority(l, r)
	if !ok {
		return "", false
	}
	s, err := bitstr.DecodeString(bs)
	if err != nil {
		panic("wavelettrie: internal corruption: " + err.Error())
	}
	return s, true
}

// RangeThreshold returns every string occurring at least t times in
// [l, r), with counts, pruning the trie by branch counts (§5).
func (q *queries) RangeThreshold(l, r, t int) []Distinct {
	return decodeDistinct(q.w.RangeThreshold(l, r, t))
}

// TopK returns the k most frequent strings in [l, r) with counts, most
// frequent first (ties lexicographic).
func (q *queries) TopK(l, r, k int) []Distinct {
	return decodeDistinct(q.w.TopKInRange(l, r, k))
}

// DistinctPrefixes groups the elements of positions [l, r) by their first
// prefixLen bytes, returning each group's prefix and count in
// lexicographic order. Strings shorter than prefixLen form their own
// groups under their full value. The traversal stops as soon as a branch
// determines its group — the §5 "enumerate the distinct prefixes" pattern
// (e.g. distinct hostnames in a time window) — so the cost depends on the
// number of groups, not on r-l or the full string lengths.
func (q *queries) DistinctPrefixes(l, r, prefixLen int) []Distinct {
	if prefixLen < 0 {
		panic("wavelettrie: DistinctPrefixes: negative prefix length")
	}
	var out []Distinct
	q.w.VisitBranches(l, r, func(p bitstr.BitString, count int, isLeaf bool) bool {
		prefix, complete := decodePartial(p)
		switch {
		case complete:
			key := prefix
			if len(key) > prefixLen {
				key = key[:prefixLen]
			}
			out = append(out, Distinct{Value: string(key), Count: count})
			return false
		case len(prefix) >= prefixLen:
			out = append(out, Distinct{Value: string(prefix[:prefixLen]), Count: count})
			return false
		default:
			return true
		}
	})
	// A complete short string and the deeper branches extending it decode
	// to the same group key and are adjacent in lexicographic order; fuse.
	merged := out[:0]
	for _, d := range out {
		if k := len(merged); k > 0 && merged[k-1].Value == d.Value {
			merged[k-1].Count += d.Count
		} else {
			merged = append(merged, d)
		}
	}
	return merged
}

// decodePartial decodes as many whole bytes as the bit prefix determines,
// reporting whether the terminator was reached (the string is complete).
func decodePartial(p bitstr.BitString) ([]byte, bool) {
	var out []byte
	i := 0
	for i < p.Len() {
		if p.Bit(i) == 0 {
			return out, true
		}
		if i+9 > p.Len() {
			return out, false
		}
		var c byte
		for k := 1; k <= 8; k++ {
			c = c<<1 | p.Bit(i+k)
		}
		out = append(out, c)
		i += 9
	}
	return out, false
}

func decodeDistinct(in []core.DistinctResult) []Distinct {
	out := make([]Distinct, len(in))
	for i, d := range in {
		s, err := bitstr.DecodeString(d.Value)
		if err != nil {
			panic("wavelettrie: internal corruption: " + err.Error())
		}
		out[i] = Distinct{Value: s, Count: d.Count}
	}
	return out
}

// Static is the immutable Wavelet Trie (paper §3, Theorem 3.7): queries
// in O(|s|+h_s) time, space LT(Sset) + nH₀(S) + o(h̃n) bits.
type Static struct {
	queries
	st     *core.Static
	frozen *succinct.Trie // lazily built §3 succinct encoding
}

// NewStatic builds a Static Wavelet Trie over seq.
func NewStatic(seq []string) *Static {
	enc := make([]bitstr.BitString, len(seq))
	for i, s := range seq {
		enc[i] = bitstr.EncodeString(s)
	}
	st := core.NewStaticFromBits(enc)
	return &Static{queries: queries{w: st}, st: st}
}

// SizeBits returns the measured in-memory footprint in bits of the
// pointer-based (fast-navigation) representation.
func (s *Static) SizeBits() int { return s.st.SizeBits() }

// SuccinctSizeBits returns the measured size of the §3 fully-succinct
// encoding — DFUDS tree, concatenated delimited labels and one
// concatenated RRR bitvector — built on first call and cached.
func (s *Static) SuccinctSizeBits() int { return s.freeze().SizeBits() }

// SuccinctComponentBits itemizes the succinct encoding by component.
func (s *Static) SuccinctComponentBits() map[string]int { return s.freeze().ComponentBits() }

func (s *Static) freeze() *succinct.Trie {
	if s.frozen == nil {
		s.frozen = succinct.Freeze(s.st)
	}
	return s.frozen
}

// AppendOnly is the append-only Wavelet Trie (Theorem 4.3): Append and
// all queries in O(|s|+h_s), space LB + PT + o(h̃n) bits.
type AppendOnly struct {
	queries
	a *core.AppendOnly
}

// NewAppendOnly returns an empty append-only Wavelet Trie.
func NewAppendOnly() *AppendOnly {
	a := core.NewAppendOnly()
	return &AppendOnly{queries: queries{w: a}, a: a}
}

// NewAppendOnlyFrom builds an AppendOnly pre-loaded with seq.
func NewAppendOnlyFrom(seq []string) *AppendOnly {
	w := NewAppendOnly()
	for _, s := range seq {
		w.Append(s)
	}
	return w
}

// Append appends s at the end of the sequence; unseen strings extend the
// alphabet automatically.
func (a *AppendOnly) Append(s string) { a.a.AppendBits(bitstr.EncodeString(s)) }

// SizeBits returns the measured in-memory footprint in bits.
func (a *AppendOnly) SizeBits() int { return a.a.SizeBits() }

// Frozen returns the succinct encoding of the sequence appended so far,
// byte-identical to NewStatic(sequence).Frozen(). It copies the trie's
// shape, labels and node bitvectors as they stand — no element is decoded
// and nothing is re-inserted — so it costs time in the size of the
// structure, not of the sequence. It reports an error only for a trie
// that disagrees with itself (loaded from a corrupt snapshot). The trie
// must not be appended to meanwhile.
func (a *AppendOnly) Frozen() (*Frozen, error) {
	t, err := succinct.FreezeAppendOnly(a.a)
	if err != nil {
		return nil, err
	}
	return &Frozen{t: t}, nil
}

// FeedValues registers this trie's distinct values into fb — one pass-1
// contribution to a streaming freeze. Cost is O(alphabet).
func (a *AppendOnly) FeedValues(fb *FrozenBuilder) {
	for _, bs := range a.a.StoredBits() {
		fb.b.AddValueBits(bs)
	}
}

// FeedRange appends the elements of positions [l, r) into fb in order —
// a pass-2 contribution to a streaming freeze, staying at the bit level
// with a reused scratch buffer (no per-element allocation). Every 4096
// elements it polls cont (when non-nil) and returns nil early if cont
// reports false; the builder is then incomplete and must be discarded,
// which the caller detects by re-checking its cancel signal.
func (a *AppendOnly) FeedRange(fb *FrozenBuilder, l, r int, cont func() bool) error {
	var feedErr error
	i := 0
	a.a.FeedBits(l, r, func(s bitstr.BitString) bool {
		if feedErr = fb.b.AppendBits(s); feedErr != nil {
			return false
		}
		i++
		if i&4095 == 0 && cont != nil && !cont() {
			return false
		}
		return true
	})
	return feedErr
}

// Dynamic is the fully-dynamic Wavelet Trie (Theorem 4.4): Insert and
// Delete at arbitrary positions in O(|s|+h_s·log n), fully dynamic
// alphabet, space LB + PT + O(nH₀) bits.
type Dynamic struct {
	queries
	d *core.Dynamic
}

// NewDynamic returns an empty fully-dynamic Wavelet Trie.
func NewDynamic() *Dynamic {
	d := core.NewDynamic()
	return &Dynamic{queries: queries{w: d}, d: d}
}

// NewDynamicFrom builds a Dynamic pre-loaded with seq.
func NewDynamicFrom(seq []string) *Dynamic {
	w := NewDynamic()
	for _, s := range seq {
		w.Append(s)
	}
	return w
}

// Insert inserts s immediately before position pos (0 ≤ pos ≤ Len()).
func (d *Dynamic) Insert(s string, pos int) { d.d.InsertBits(bitstr.EncodeString(s), pos) }

// Append appends s at the end of the sequence.
func (d *Dynamic) Append(s string) { d.d.AppendBits(bitstr.EncodeString(s)) }

// Delete removes and returns the string at position pos. Deleting the
// last occurrence of a string shrinks the alphabet.
func (d *Dynamic) Delete(pos int) string {
	s, err := bitstr.DecodeString(d.d.DeleteAt(pos))
	if err != nil {
		panic("wavelettrie: internal corruption: " + err.Error())
	}
	return s
}

// SizeBits returns the measured in-memory footprint in bits.
func (d *Dynamic) SizeBits() int { return d.d.SizeBits() }

// EncodedBitvectorBits returns the exact Elias-γ payload size of all node
// bitvectors — the O(nH₀) term of Theorem 4.4 as measured.
func (d *Dynamic) EncodedBitvectorBits() int { return d.d.EncodedBitvectorBits() }
