package wavelettrie

import (
	"repro/internal/bitstr"
	"repro/internal/succinct"
)

// FrozenBuilder streams a sequence of strings into a Frozen without ever
// materializing the input as a []string. It is the write-side counterpart
// of the streaming iterators: the peak memory is the output trie shape
// plus one growing bit accumulator per internal node — independent of the
// element count beyond the nH₀ bits the result itself occupies.
//
// The protocol is two passes over a replayable source:
//
//  1. AddValue once per element (or once per *distinct* value, if the
//     caller knows the distinct set) — sketches the Patricia shape.
//  2. Append once per element in sequence order — routes each element
//     root-to-leaf, one bit per internal node on the path.
//  3. Build — emits the Frozen.
//
// The result is bit-identical (marshalled bytes and all) to
// NewStatic(seq) for the same sequence: Patricia tries are
// canonical, and the builder replays the exact preorder assembly of the
// §3 encoder. FreezeIterate packages the two passes for callback-style
// sources — the snapshot exports. A sequence that already is a trie does
// not need a builder at all: AppendOnly.Frozen and ConcatFrozen, which
// the store's flush and compaction run, copy the structure instead of
// re-inserting the elements.
//
// A FrozenBuilder must not be used from multiple goroutines concurrently.
type FrozenBuilder struct {
	b *succinct.Builder
}

// NewFrozenBuilder returns an empty streaming builder.
func NewFrozenBuilder() *FrozenBuilder {
	return &FrozenBuilder{b: succinct.NewBuilder()}
}

// AddValue registers one element during pass 1. Duplicate values are
// cheap no-ops. It panics if called after the first Append.
func (fb *FrozenBuilder) AddValue(s string) {
	fb.b.AddValueBits(bitstr.EncodeString(s))
}

// Append routes one element during pass 2; the first call seals the
// shape. It returns an error if s was not registered in pass 1 — the two
// passes saw different streams.
func (fb *FrozenBuilder) Append(s string) error {
	return fb.b.AppendBits(bitstr.EncodeString(s))
}

// Build emits the Frozen. The builder must not be used afterwards. It
// returns an error when some registered value was never appended.
func (fb *FrozenBuilder) Build() (*Frozen, error) {
	t, err := fb.b.Build()
	if err != nil {
		return nil, err
	}
	return newFrozen(t, nil), nil
}

// FreezeIterate builds a Frozen from a replayable iteration: iterate is
// called exactly twice with a yield callback that must see the same
// sequence both times (pass 1 registers values, pass 2 appends). It is
// the bridge from callback-style sources — a store snapshot stitched from
// many segments — to the streaming builder, replacing the
// NewStatic(Slice(0, n)) pattern and its O(n) string materialization.
func FreezeIterate(iterate func(yield func(s string) bool)) (*Frozen, error) {
	fb := NewFrozenBuilder()
	iterate(func(s string) bool {
		fb.AddValue(s)
		return true
	})
	var appendErr error
	iterate(func(s string) bool {
		appendErr = fb.Append(s)
		return appendErr == nil
	})
	if appendErr != nil {
		return nil, appendErr
	}
	return fb.Build()
}
