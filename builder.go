package wavelettrie

import "fmt"

// FrozenBuilder keeps the names the benchmark ladder (bench/) times a
// freeze by: NewFrozenBuilder, FeedValues, FeedRange and Build. Underneath
// they are (*AppendOnly).Frozen, the structural freeze a store's flush
// runs. Only bench/ reaches them; ROADMAP item 1A deletes them.
type FrozenBuilder struct{ a *AppendOnly }

// NewFrozenBuilder returns a builder of the empty sequence.
func NewFrozenBuilder() *FrozenBuilder { return &FrozenBuilder{a: NewAppendOnly()} }

// FeedValues makes a the trie fb freezes.
func (a *AppendOnly) FeedValues(fb *FrozenBuilder) { fb.a = a }

// FeedRange makes a the trie fb freezes. [l, r) must be the whole
// sequence; cont is never polled.
func (a *AppendOnly) FeedRange(fb *FrozenBuilder, l, r int, cont func() bool) error {
	if l != 0 || r != a.Len() {
		return fmt.Errorf("wavelettrie: FeedRange(%d, %d): only the whole sequence [0, %d) is frozen", l, r, a.Len())
	}
	fb.a = a
	return nil
}

// Build freezes the trie fb was fed.
func (fb *FrozenBuilder) Build() (*Frozen, error) { return fb.a.Frozen() }
