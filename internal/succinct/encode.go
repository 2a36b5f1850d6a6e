package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/dfuds"
	"repro/internal/eliasfano"
	"repro/internal/rrr"
	"repro/internal/wire"
)

const (
	wireMagic = 0x57545249 // "WTRI"
	// wireVersion 4: the shape is one bit a node, and the β ranks count
	// from their own segment's start, so neither the internal-node marks
	// nor the cumulative-ones directory of versions up to 3 is stored.
	// Older versions are refused, not converted.
	wireVersion = 4
)

// MarshalBinary serializes the frozen Wavelet Trie into a self-contained
// byte buffer (little-endian, versioned). The encoding is the succinct
// representation itself — shape bitmap, labels and their directory, the
// segment directory and the RRR class and offset streams — minus
// everything derived: the excess index, the Elias-Fano select hints and
// the RRR superblock samples are rebuilt on decode (the samples against
// the segment directory, which is why it is written first), so the
// on-disk size lands below SizeBits and a loaded trie cannot carry a
// sample that disagrees with its payload.
func (t *Trie) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter(wireMagic, wireVersion)
	t.EncodeTo(w)
	return w.Bytes(), nil
}

// UnmarshalBinary reconstructs a frozen Wavelet Trie serialized by
// MarshalBinary.
func UnmarshalBinary(data []byte) (*Trie, error) {
	r, err := wire.NewReader(data, wireMagic, wireVersion)
	if err != nil {
		return nil, err
	}
	t, err := DecodeFrom(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// EncodeTo serializes the trie body (no magic header) into w, so it can
// be embedded in an enclosing container.
func (t *Trie) EncodeTo(w *wire.Writer) {
	w.Int(t.n)
	if t.tree == nil {
		w.Int(0) // node count 0 marks the empty trie
		return
	}
	w.Int(t.tree.NumNodes())
	t.tree.EncodeTo(w)
	w.Int(t.labels.Len())
	w.Words(t.labels.Words())
	t.labelDir.EncodeTo(w)
	t.bvOffsets.EncodeTo(w)
	t.bits.EncodeTo(w)
}

// DecodeFrom reads a trie body written by EncodeTo and validates it
// deeply enough that every query on the result stays in range: component
// shapes, directory monotonicity against the concatenated streams, the
// shape bitmap's balance and a full structural walk of the tree. Corrupt
// input yields an error, never a panic — here or later at query time.
func DecodeFrom(r *wire.Reader) (*Trie, error) { return decodeFrom(r, true) }

// DecodeFromTrusted reads a trie body like DecodeFrom but skips the
// deep structural validation — the O(n) directory-monotonicity loops
// and the full tree walk that dominate load time. It is only for
// callers that have independently verified the bytes are exactly what
// EncodeTo produced (e.g. by checksum against a manifest they wrote);
// on arbitrary input the returned trie may panic at query time.
func DecodeFromTrusted(r *wire.Reader) (*Trie, error) { return decodeFrom(r, false) }

func decodeFrom(r *wire.Reader, deep bool) (*Trie, error) {
	t := &Trie{n: r.Int()}
	nodes := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nodes == 0 {
		if t.n != 0 {
			return nil, fmt.Errorf("succinct: %d elements but empty trie", t.n)
		}
		return t, nil
	}
	t.tree = dfuds.DecodeTree(r)
	labelLen := r.Int()
	labelWords := r.Words()
	if r.Err() == nil {
		if labelLen < 0 || len(labelWords) != (labelLen+63)/64 {
			r.Fail("succinct: label stream shape")
		} else if r.Refs() {
			// Zero-copy mode: alias the decoded words (they may point into
			// an mmap'd buffer; the encoder wrote masked tails).
			t.labels = bitstr.FromWordsShared(labelWords, labelLen)
		} else {
			t.labels = bitstr.FromWords(labelWords, labelLen)
		}
	}
	t.labelDir = eliasfano.DecodePartialSum(r)
	t.bvOffsets = eliasfano.DecodeMonotone(r)
	t.bits = rrr.DecodeSegments(r, t.bvOffsets)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if deep {
		if err := t.validate(nodes); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// validate cross-checks every component of a decoded trie. Every check
// is meant to fail by returning; the recover turns a panic one of them
// missed into a decode error all the same.
func (t *Trie) validate(nodes int) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("succinct: malformed structure: %v", rec)
		}
	}()
	if t.tree.NumNodes() != nodes {
		return fmt.Errorf("succinct: tree has %d nodes, header says %d", t.tree.NumNodes(), nodes)
	}
	if t.n < 1 {
		return fmt.Errorf("succinct: non-empty trie with %d elements", t.n)
	}
	// Behind its leading 1 the bitmap must be the preorder of one strictly
	// binary tree: then the walk below, and every query after it, reaches
	// each of the nodes once and counts the internal ones right.
	if !t.tree.WellFormed() {
		return fmt.Errorf("succinct: shape bitmap of %d nodes is not balanced", nodes)
	}
	if t.labelDir.Count() != nodes {
		return fmt.Errorf("succinct: label directory covers %d nodes, want %d", t.labelDir.Count(), nodes)
	}
	if int(t.labelDir.Total()) != t.labels.Len() {
		return fmt.Errorf("succinct: labels %d bits, directory says %d", t.labels.Len(), t.labelDir.Total())
	}
	// Decoded Elias-Fano sequences are not necessarily monotone (corrupt
	// low bits can reorder values within a high bucket); check explicitly
	// so label extraction can never slice out of range.
	prev := uint64(0)
	for i := 0; i <= nodes; i++ {
		off := t.labelDir.Offset(i)
		if off < prev || off > uint64(t.labels.Len()) {
			return fmt.Errorf("succinct: label directory not monotone at %d", i)
		}
		prev = off
	}
	internals := (nodes - 1) / 2
	if t.bvOffsets.Len() != internals+1 {
		return fmt.Errorf("succinct: bitvector directory covers %d segments, want %d", t.bvOffsets.Len()-1, internals)
	}
	// Segment starts must be monotone within the concatenated bitvector:
	// then the rank samples, rebuilt against them, count from the start of
	// the segment they fall in, and every rank and select on a segment
	// stays within the RRR vector's bounds.
	prev = 0
	for i := 0; i <= internals; i++ {
		off := t.bvOffsets.Get(i)
		if off < prev || off > uint64(t.bits.Len()) {
			return fmt.Errorf("succinct: bitvector directory not monotone at %d", i)
		}
		prev = off
	}
	if int(t.bvOffsets.Get(internals)) != t.bits.Len() {
		return fmt.Errorf("succinct: bitvector stream %d bits, directory says %d", t.bits.Len(), t.bvOffsets.Get(internals))
	}
	// Structural walk: every internal node's bitvector segment must be
	// exactly as long as its subsequence (the Definition 3.1 invariant),
	// its zeros and ones the lengths of its children's, and no leaf may be
	// empty. The traversal stack lives on the heap so a crafted deep tree
	// cannot exhaust the goroutine stack.
	type entry struct {
		nd   dfuds.BinaryNode
		want int
	}
	stack := []entry{{t.tree.BinaryRoot(), t.n}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.tree.IsLeaf(e.nd.Pos) {
			if e.want == 0 {
				return fmt.Errorf("succinct: leaf %d with empty subsequence", e.nd.ID())
			}
			continue
		}
		start, end := t.seg(e.nd.Internal)
		if end-start != e.want {
			return fmt.Errorf("succinct: node %d segment %d bits, subsequence has %d", e.nd.ID(), end-start, e.want)
		}
		ones := t.bits.RankIn(start, e.want)
		stack = append(stack,
			entry{t.tree.BinaryChild(e.nd, 1), ones},
			entry{t.tree.BinaryChild(e.nd, 0), e.want - ones})
	}
	return nil
}
