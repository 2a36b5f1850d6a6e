package succinct

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/patricia"
)

// Builder assembles the §3 succinct representation directly from a stream
// of binarized elements, without ever holding the input as a slice of
// strings or building the pointer-based core.Static intermediate. It is
// the write-side mirror of the streaming iterators: construction memory is
// bounded by the output size (trie shape + per-node bit accumulators), not
// by the input sequence.
//
// The protocol is two passes over a replayable stream:
//
//  1. AddValueBits(s) once per element (duplicates are cheap no-ops inside
//     the Patricia insert) — sketches the trie shape. Only the distinct
//     set matters, so callers with a distinct-values source (e.g. a frozen
//     trie's leaf enumeration) can feed each value once.
//  2. AppendBits(s) once per element in sequence order — routes the
//     element root-to-leaf, appending one bit to every internal node's
//     accumulator, exactly the replay loop of core.NewStaticFromBits.
//  3. Build() — emits the Trie.
//
// Because Patricia tries are canonical (shape depends only on the stored
// set, not insertion order) and Build walks the same preorder as Freeze,
// the result is bit-identical to Freeze(core.NewStaticFromBits(seq)) for
// the same sequence; the differential tests assert this on the marshalled
// bytes. A Builder must not be used from multiple goroutines concurrently.
type Builder struct {
	t      *patricia.Trie[*bitvec.Builder]
	n      int  // elements appended in pass 2
	sealed bool // first AppendBits freezes the shape
	done   bool // Build consumes the builder
}

// NewBuilder returns an empty streaming builder.
func NewBuilder() *Builder {
	return &Builder{t: patricia.New[*bitvec.Builder]()}
}

// AddValueBits registers one element of the stream during pass 1. The
// stored set must be prefix-free (the binarization contract); a violation
// panics inside the Patricia insert. It panics if called after the first
// AppendBits — the shape must be complete before routing starts.
func (b *Builder) AddValueBits(s bitstr.BitString) {
	if b.sealed {
		panic("succinct: Builder: AddValueBits after AppendBits")
	}
	b.t.Insert(s)
}

// Len returns the number of elements appended so far (pass 2).
func (b *Builder) Len() int { return b.n }

// AppendBits routes one element of the stream during pass 2, appending its
// branch bits to the internal nodes along its root-to-leaf path. The first
// call seals the shape. It returns an error if s does not resolve to a
// leaf registered in pass 1 — the two passes saw different streams.
func (b *Builder) AppendBits(s bitstr.BitString) error {
	if b.done {
		panic("succinct: Builder: AppendBits after Build")
	}
	b.sealed = true
	nd := b.t.Root()
	if nd == nil {
		return fmt.Errorf("succinct: Builder: AppendBits with no registered values")
	}
	off := 0
	for !nd.IsLeaf() {
		off += nd.Label().Len()
		if off >= s.Len() {
			return fmt.Errorf("succinct: Builder: element %q not registered in pass 1", s.String())
		}
		bit := s.Bit(off)
		if nd.Payload == nil {
			nd.Payload = bitvec.NewBuilder(0)
		}
		nd.Payload.AppendBit(bit)
		nd = nd.Child(bit)
		off++
	}
	if off+nd.Label().Len() != s.Len() {
		return fmt.Errorf("succinct: Builder: element %q not registered in pass 1", s.String())
	}
	b.n++
	return nil
}

// Build emits the succinct Trie. The walk is the same preorder (node,
// 0-child, 1-child) and component assembly as Freeze, so the output is
// bit-identical to freezing the equivalent core.Static. The Builder must
// not be used afterwards. It returns an error when some registered value
// was never appended — the per-node bit accumulators would be short and
// the encoding inconsistent.
func (b *Builder) Build() (*Trie, error) {
	if b.done {
		panic("succinct: Builder: Build called twice")
	}
	b.done = true
	if b.t.Root() == nil {
		return &Trie{}, nil
	}
	if b.n == 0 {
		return nil, fmt.Errorf("succinct: Builder: values registered but none appended")
	}
	type entry struct {
		nd   *patricia.Node[*bitvec.Builder]
		want int // elements that must have been routed through this node
	}
	a := newAssembler(0, 0, 0)
	// Heap stack, 1-child pushed first so the 0-child pops first — the
	// preorder of patricia.Walk and core.Static.WalkPreorder.
	stack := []entry{{b.t.Root(), b.n}}
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		label := e.nd.Label()
		if e.nd.IsLeaf() {
			a.leaf(label.Words(), 0, label.Len())
			if e.want == 0 {
				return nil, fmt.Errorf("succinct: Builder: value registered in pass 1 but never appended in pass 2")
			}
			continue
		}
		a.internal(label.Words(), 0, label.Len())
		bd := e.nd.Payload
		if bd == nil {
			bd = bitvec.NewBuilder(0)
		}
		bv := bd.Build()
		e.nd.Payload = nil
		if bv.Len() != e.want {
			return nil, fmt.Errorf("succinct: Builder: node routed %d elements, expected %d", bv.Len(), e.want)
		}
		ones := bv.Ones()
		stack = append(stack,
			entry{e.nd.Child(1), ones},
			entry{e.nd.Child(0), bv.Len() - ones})
		a.bits.AppendWords(bv.Words(), bv.Len())
	}
	return a.finish(b.n), nil
}
