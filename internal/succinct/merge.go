package succinct

import (
	"errors"
	"fmt"

	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/eliasfano"
	"repro/internal/rrr"
)

// This file is the structural write path: the wavelet trie of a
// concatenation S₁·S₂·…·S_k built from the tries of the parts, without
// decoding a single element. The merged shape is the Patricia merge of the
// parts' shapes, and a merged node's β is the parts' β's for that node one
// after the other (its subsequence is the parts' subsequences in order),
// with a constant run — the Init(b, n) of §4 — standing in for a part that
// does not branch there. Flush (one append-only source) and compaction (k
// frozen sources) are both this one walk.
//
// Four rules decide a merged node from the sources present at it, each
// somewhere inside the label of its own current node:
//
//  1. the merged label is the longest common prefix of the present
//     sources' remaining labels;
//  2. a source whose label ends exactly there, at an internal node,
//     branches there: it contributes its β segment and is present in both
//     children, with the segment's zeros and ones as its element counts;
//  3. a source whose label runs on contributes as many copies of its next
//     bit as it has elements below, and is present in that child only;
//  4. a source whose label ends there at a leaf makes the merged node a
//     leaf, and then every present source must end there at a leaf — any
//     other meeting puts one string's end inside another string, and the
//     union is not prefix-free.
//
// A source's nodes, taken in the merged preorder, come in the source's own
// preorder: the merged 0-subtree holds all of a branching source's
// 0-subtree, and a source that runs on into one child is simply not
// touched under the other. So every source is read strictly front to back
// — a frozen trie by stepping its shape bitmap, label directory, segment
// directory and RRR blocks forward (no FindClose, no select, no rank),
// an append-only trie by a pointer walk — and nothing is kept per node:
// the output's own raw bits are the only memory that grows.

// source is one input of a merge, read front to back.
type source interface {
	// next moves to the next node in preorder: its label is the n bits at
	// bit offset off of words.
	next() (words []uint64, off, n int, leaf bool, err error)
	// segment appends the β of the node next last returned, an internal
	// one, to dst and returns its set bits — counted from the bits copied.
	// The segment must be count bits long.
	segment(dst *bitstr.Builder, count int, cont func() bool) (ones int, err error)
}

// errCanceled reports a merge abandoned because its cont said so.
var errCanceled = errors.New("succinct: merge canceled")

// pollBits is how many β bits a source copies between two polls of cont;
// merge also polls once per emitted node.
const pollBits = 1 << 16

// spans reads a directory of delimiters d₀ ≤ d₁ ≤ … front to back as the
// consecutive ranges [d₀, d₁), [d₁, d₂), ….
type spans struct {
	ends eliasfano.Iter
	lo   int // where the next range starts
}

func newSpans(delims eliasfano.Iter) spans {
	lo, _ := delims.Next()
	return spans{ends: delims, lo: int(lo)}
}

// next returns the next range; ok is false once the directory is used up.
func (s *spans) next() (lo, hi int, ok bool) {
	end, ok := s.ends.Next()
	lo, hi = s.lo, int(end)
	s.lo = hi
	return lo, hi, ok
}

// trieSource reads a frozen trie. Every component advances in step with
// the preorder: the shape bitmap by one bit, the two directories by one
// entry, the RRR reader by one segment.
type trieSource struct {
	t  *Trie
	id int // preorder number of the next node

	labels spans // the next node's label in L
	segs   spans // the next internal node's segment
	bits   rrr.Reader
}

func newTrieSource(t *Trie) *trieSource {
	return &trieSource{
		t:      t,
		labels: newSpans(t.labelDir.Offsets()),
		segs:   newSpans(t.bvOffsets.Iter()),
		bits:   t.bits.Reader(),
	}
}

func (s *trieSource) next() ([]uint64, int, int, bool, error) {
	t := s.t
	if s.id >= t.tree.NumNodes() {
		return nil, 0, 0, false, fmt.Errorf("succinct: merge: source walk runs past its %d nodes", t.tree.NumNodes())
	}
	lo, hi, ok := s.labels.next()
	if !ok || hi < lo || hi > t.labels.Len() {
		return nil, 0, 0, false, fmt.Errorf("succinct: merge: source label directory broken at node %d", s.id)
	}
	s.id++ // node id sits at bitmap position id+1
	return t.labels.Words(), lo, hi - lo, t.tree.IsLeaf(s.id), nil
}

func (s *trieSource) segment(dst *bitstr.Builder, count int, cont func() bool) (int, error) {
	lo, hi, ok := s.segs.next()
	if !ok || hi-lo != count {
		return 0, fmt.Errorf("succinct: merge: source segment at bit %d is %d bits, its subsequence has %d", lo, hi-lo, count)
	}
	if s.bits.Pos() != lo || count > s.t.bits.Len()-lo {
		return 0, fmt.Errorf("succinct: merge: source segment [%d,+%d) is not the next %d bits of its stream", lo, count, count)
	}
	ones := 0
	for left := count; left > 0; {
		m := min(left, pollBits)
		ones += s.bits.AppendTo(dst, m)
		if left -= m; left > 0 && cont != nil && !cont() {
			return 0, errCanceled
		}
	}
	return ones, nil
}

// appendOnlySource reads an append-only trie by its pointer walk.
type appendOnlySource struct {
	walk *core.Preorder
	bv   *appendbv.Vector // of the node next last returned; nil on a leaf
}

func (s *appendOnlySource) next() ([]uint64, int, int, bool, error) {
	label, bv, ok := s.walk.Next()
	if !ok {
		return nil, 0, 0, false, fmt.Errorf("succinct: merge: source walk runs past its nodes")
	}
	s.bv = bv
	return label.Words(), 0, label.Len(), bv == nil, nil
}

func (s *appendOnlySource) segment(dst *bitstr.Builder, count int, _ func() bool) (int, error) {
	if s.bv.Len() != count {
		return 0, fmt.Errorf("succinct: merge: source bitvector is %d bits, its subsequence has %d", s.bv.Len(), count)
	}
	ones := s.bv.AppendTo(dst)
	if ones != s.bv.Ones() {
		return 0, fmt.Errorf("succinct: merge: source bitvector holds %d ones, its directory says %d", ones, s.bv.Ones())
	}
	return ones, nil
}

// mergeInput is a source with the label of its current node.
type mergeInput struct {
	src             source
	count           int // elements in the source
	leaves          int // distinct strings in the source
	labelBits, bits int // label and β bits in the source: what merge sizes its output by
	words           []uint64
	lo, n           int
	leaf            bool
}

// mergeRef places one source at a merged node still to be emitted.
type mergeRef struct {
	in    int // index of the source
	off   int // label bits of its current node already emitted; -1: the node is still to be read
	count int // its elements below the merged node, at least 1
}

// Merge returns the trie of the concatenation of the tries' sequences, in
// argument order — byte for byte the trie the two-pass Builder makes of
// that sequence. cont, when non-nil, is polled along the way; once it
// reports false Merge gives up with an error. A source whose directories
// and bits disagree, or sources whose union is not prefix-free, are an
// error too.
func Merge(cont func() bool, tries ...*Trie) (*Trie, error) {
	return merge(cont, trieInputs(tries))
}

// FreezeAppendOnly returns the succinct form of a's sequence: the merge of
// one source, so every node comes out with its own label and its own bits.
// a must not be appended to meanwhile.
func FreezeAppendOnly(a *core.AppendOnly) (*Trie, error) {
	ins := appendOnlyInputs(nil, []*core.AppendOnly{a})
	for i := range ins {
		ins[i].labelBits, ins[i].bits = a.LabelBits(), a.TotalBitvectorBits()
	}
	return merge(nil, ins)
}

// UnionAlphabetSize returns how many distinct strings the tries hold
// between them — the leaves of the Patricia merge of their shapes, which
// is the AlphabetSize of their Merge in any order. It is the merge walk
// with nothing assembled: labels are compared, no β is read and no element
// decoded, so the cost is the sources' nodes, not their elements. Sources
// whose union is not prefix-free, or one whose directories disagree, are
// an error. The append-only tries must not be appended to meanwhile.
func UnionAlphabetSize(tries []*Trie, live []*core.AppendOnly) (int, error) {
	ins := appendOnlyInputs(trieInputs(tries), live)
	if len(ins) == 1 {
		return ins[0].leaves, nil // one source's leaves are already counted
	}
	return mergeWalk(nil, ins, nil)
}

// trieInputs returns the non-empty tries as merge inputs.
func trieInputs(tries []*Trie) []mergeInput {
	ins := make([]mergeInput, 0, len(tries))
	for _, t := range tries {
		if t.tree != nil {
			ins = append(ins, mergeInput{src: newTrieSource(t), count: t.n, leaves: t.AlphabetSize(),
				labelBits: t.labels.Len(), bits: t.bits.Len()})
		}
	}
	return ins
}

// appendOnlyInputs appends the non-empty append-only tries to ins as merge
// inputs.
func appendOnlyInputs(ins []mergeInput, live []*core.AppendOnly) []mergeInput {
	for _, a := range live {
		if a.Len() > 0 {
			ins = append(ins, mergeInput{src: &appendOnlySource{walk: a.Preorder()}, count: a.Len(), leaves: a.AlphabetSize()})
		}
	}
	return ins
}

// merge assembles the trie of the inputs' concatenation. The output holds
// exactly the inputs' β bits, and at least the nodes and label bits of its
// largest input — all of them when there is one input, a flush; little
// more when the inputs share most of their strings, as a log's generations
// do — so that is what the assembler starts with room for.
func merge(cont func() bool, ins []mergeInput) (*Trie, error) {
	total, nodes, labelBits, bits := 0, 0, 0, 0
	for i := range ins {
		total += ins[i].count
		nodes = max(nodes, 2*ins[i].leaves-1)
		labelBits = max(labelBits, ins[i].labelBits)
		bits += ins[i].bits
	}
	a := newAssembler(nodes, labelBits, bits)
	if _, err := mergeWalk(cont, ins, a); err != nil {
		return nil, err
	}
	return a.finish(total), nil
}

// mergeWalk steps the inputs through the merged preorder by rules 1–4 and
// returns the merged trie's leaf count. Every merged node goes to a — its
// label, and for an internal node its β — unless a is nil: then the walk
// only counts, calls no segment and reads labels alone, and the element
// counts below the root (which only a segment's ones can tell) are not
// kept.
func mergeWalk(cont func() bool, ins []mergeInput, a *assembler) (leaves int, err error) {
	// The merged nodes still to be emitted, as a stack (the 0-child is
	// pushed last): frame i is refs[frames[i]:frames[i+1]], the sources
	// present at that node in argument order.
	var refs []mergeRef
	var frames []int
	for i := range ins {
		if ins[i].count < 1 {
			return 0, fmt.Errorf("succinct: merge: source %d has nodes but %d elements", i, ins[i].count)
		}
		refs = append(refs, mergeRef{in: i, off: -1, count: ins[i].count})
	}
	if len(refs) > 0 {
		frames = append(frames, 0)
	}
	var cur, zero, one []mergeRef
	for len(frames) > 0 {
		if cont != nil && !cont() {
			return 0, errCanceled
		}
		lo := frames[len(frames)-1]
		frames = frames[:len(frames)-1]
		cur = append(cur[:0], refs[lo:]...)
		refs = refs[:lo]

		for i := range cur {
			if r := &cur[i]; r.off < 0 {
				in := &ins[r.in]
				if in.words, in.lo, in.n, in.leaf, err = in.src.next(); err != nil {
					return 0, err
				}
				r.off = 0
			}
		}
		// Rule 1, and who ends where the common prefix does.
		first := &ins[cur[0].in]
		at := first.lo + cur[0].off
		l := first.n - cur[0].off
		for _, r := range cur[1:] {
			in := &ins[r.in]
			l = bitstr.LCPAt(first.words, at, in.words, in.lo+r.off, min(l, in.n-r.off))
		}
		ends := 0
		for _, r := range cur {
			if in := &ins[r.in]; in.leaf && in.n-r.off == l {
				ends++
			}
		}
		if ends > 0 { // rule 4
			if ends != len(cur) {
				return 0, fmt.Errorf("succinct: merge: a stored string is a proper prefix of another — the union of the sources is not prefix-free")
			}
			leaves++
			if a != nil {
				a.leaf(first.words, at, l)
			}
			continue
		}
		if a != nil {
			a.internal(first.words, at, l)
		}
		zero, one = zero[:0], one[:0]
		for _, r := range cur {
			in := &ins[r.in]
			if in.n-r.off == l { // rule 2
				ones := 0
				if a != nil {
					if ones, err = in.src.segment(a.bits, r.count, cont); err != nil {
						return 0, err
					}
					if ones == 0 || ones == r.count {
						return 0, fmt.Errorf("succinct: merge: source %d has a node with an empty child", r.in)
					}
				}
				zero = append(zero, mergeRef{in: r.in, off: -1, count: r.count - ones})
				one = append(one, mergeRef{in: r.in, off: -1, count: ones})
				continue
			}
			// Rule 3.
			p := in.lo + r.off + l
			bit := byte(in.words[p>>6] >> (uint(p) & 63) & 1)
			if a != nil {
				a.bits.AppendRun(bit, r.count)
			}
			down := mergeRef{in: r.in, off: r.off + l + 1, count: r.count}
			if bit == 1 {
				one = append(one, down)
			} else {
				zero = append(zero, down)
			}
		}
		// Each child holds a source: one that ended here is in both, and if
		// none did, the common prefix ended because two next bits differ.
		frames = append(frames, len(refs))
		refs = append(refs, one...)
		frames = append(frames, len(refs))
		refs = append(refs, zero...)
	}
	return leaves, nil
}
