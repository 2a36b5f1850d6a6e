package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/dfuds"
	"repro/internal/eliasfano"
	"repro/internal/rrr"
	"repro/internal/wire"
)

const (
	wireMagic = 0x57545249 // "WTRI"
	// wireVersion 2: the embedded RRR vectors serialize payload-only (the
	// superblock directory is rebuilt on decode).
	// wireVersion 3: word payloads are 8-byte aligned within the buffer
	// (wire.Writer.Words padding) so mmap'd files decode zero-copy.
	wireVersion = 3
)

// MarshalBinary serializes the frozen Wavelet Trie into a self-contained
// byte buffer (little-endian, versioned). The encoding is the succinct
// representation itself — labels, parens, RRR streams and directories —
// minus the derived rank samples, which are rebuilt on decode, so the
// on-disk size lands slightly below SizeBits.
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
	t.internal.EncodeTo(w)
	t.bits.EncodeTo(w)
	t.bvOffsets.EncodeTo(w)
	t.bvOnes.EncodeTo(w)
}

// DecodeFrom reads a trie body written by EncodeTo and validates it
// deeply enough that every query on the result stays in range: component
// shapes, directory monotonicity against the concatenated streams, and a
// full structural walk of the DFUDS tree. Corrupt input yields an error,
// never a panic — here or later at query time.
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
	t.internal = bitvec.DecodeFrom(r)
	t.bits = rrr.DecodeFrom(r)
	t.bvOffsets = eliasfano.DecodeMonotone(r)
	t.bvOnes = eliasfano.DecodeMonotone(r)
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

// validate cross-checks every component of a decoded trie. Navigation
// over a malformed DFUDS encoding can panic deep inside the parentheses
// index; the recover converts any such panic into a decode error.
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
	internals := t.internal.Ones()
	if t.internal.Len() != nodes || internals != (nodes-1)/2 {
		return fmt.Errorf("succinct: internal-node marks inconsistent (%d nodes, %d internals)", t.internal.Len(), internals)
	}
	if t.bvOffsets.Len() != internals+1 || t.bvOnes.Len() != internals+1 {
		return fmt.Errorf("succinct: bitvector directories cover %d segments, want %d", t.bvOffsets.Len()-1, internals)
	}
	// Segment offsets must be monotone within the concatenated bitvector,
	// and the ones directory must agree with the actual stream ranks —
	// then every rank and select on a segment stays within the RRR
	// vector's bounds.
	prev = 0
	for i := 0; i <= internals; i++ {
		off := t.bvOffsets.Get(i)
		if off < prev || off > uint64(t.bits.Len()) {
			return fmt.Errorf("succinct: bitvector directory not monotone at %d", i)
		}
		prev = off
		if got := t.bits.Rank1(int(off)); got != int(t.bvOnes.Get(i)) {
			return fmt.Errorf("succinct: segment %d claims %d preceding ones, stream has %d", i, t.bvOnes.Get(i), got)
		}
	}
	if int(t.bvOffsets.Get(internals)) != t.bits.Len() {
		return fmt.Errorf("succinct: bitvector stream %d bits, directory says %d", t.bits.Len(), t.bvOffsets.Get(internals))
	}
	// Structural walk with the general DFUDS navigation (Degree, Child,
	// Parent, ChildIndex): the reachable tree must be binary (degree 0 or
	// 2), have exactly the advertised node count, consistent up-links and
	// in-range preorder ids, every internal node's bitvector segment must
	// be exactly as long as its subsequence (the Definition 3.1
	// invariant), and no leaf may be empty. At every node the walk also
	// checks that the strictly-binary shortcuts the queries navigate with
	// (dfuds.BinaryNode) land on the same child, preorder id and internal
	// index — so the shortcuts only ever run on a trie where they are
	// right. The traversal stack lives on the heap so a crafted deep tree
	// cannot exhaust the goroutine stack.
	type entry struct {
		nd   dfuds.BinaryNode
		want int
	}
	stack := []entry{{t.tree.BinaryRoot(), t.n}}
	seen := 0
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen++
		if seen > nodes {
			return fmt.Errorf("succinct: tree walk exceeds %d nodes", nodes)
		}
		v, id := e.nd.Pos, e.nd.ID
		if id < 0 || id >= nodes || id != t.tree.Preorder(v) {
			return fmt.Errorf("succinct: preorder id %d out of range or off the tree", id)
		}
		if t.tree.IsLeaf(v) {
			if e.want == 0 {
				return fmt.Errorf("succinct: leaf %d with empty subsequence", id)
			}
			continue
		}
		if deg := t.tree.Degree(v); deg != 2 {
			return fmt.Errorf("succinct: internal node with degree %d", deg)
		}
		if t.internal.Access(id) != 1 || t.internal.Rank1(id) != e.nd.InternalIndex() {
			return fmt.Errorf("succinct: internal node %d not marked internal", id)
		}
		length, ones := t.segCounts(e.nd.InternalIndex())
		if length != e.want {
			return fmt.Errorf("succinct: node %d segment %d bits, subsequence has %d", id, length, e.want)
		}
		for i := 0; i < 2; i++ {
			c := t.tree.Child(v, i)
			short := t.tree.BinaryChild(e.nd, byte(i))
			if t.tree.Parent(c) != v || t.tree.ChildIndex(c) != i || short.Pos != c {
				return fmt.Errorf("succinct: child/parent links inconsistent at node %d", id)
			}
			childWant := length - ones
			if i == 1 {
				childWant = ones
			}
			stack = append(stack, entry{short, childWant})
		}
	}
	if seen != nodes {
		return fmt.Errorf("succinct: %d reachable nodes, header says %d", seen, nodes)
	}
	return nil
}
