package store

import (
	wavelettrie "repro"
	"repro/internal/bitstr"
	"repro/internal/succinct"
)

// probe is one request's key, prepared once and handed down the segment
// seam: the binarized bits every frozen generation descends with — one
// encode per request, not one per generation. A probe must not be copied
// (bits may alias buf).
type probe struct {
	key    string
	prefix bool             // key is a byte prefix to match, not a whole value
	bits   bitstr.BitString // Encode(key), or EncodePrefix(key) when prefix
	buf    [bitstr.KeyWords]uint64
}

func newProbe(key string, prefix bool) *probe {
	k := &probe{key: key, prefix: prefix}
	if prefix {
		k.bits = bitstr.EncodePrefixStringInto(k.buf[:], key)
	} else {
		k.bits = bitstr.EncodeStringInto(k.buf[:], key)
	}
	return k
}

// frozenSeg serves a frozen generation as a segment: positional reads go
// through the Frozen, keyed reads straight to its succinct trie with the
// probe's pre-encoded bits.
type frozenSeg struct {
	*wavelettrie.Frozen
	t *succinct.Trie
}

func newFrozenSeg(ix *wavelettrie.Frozen) frozenSeg {
	return frozenSeg{Frozen: ix, t: succinct.Unwrap(ix)}
}

func (f frozenSeg) alphabet(u *alphabetUnion) { u.frozen = append(u.frozen, f.Frozen) }

func (f frozenSeg) rank(k *probe, pos int) int {
	if k.prefix {
		return f.t.RankPrefixBits(k.bits, pos)
	}
	return f.t.RankBits(k.bits, pos)
}

func (f frozenSeg) sel(k *probe, idx int) (int, bool) {
	if k.prefix {
		return f.t.SelectPrefixBits(k.bits, idx)
	}
	return f.t.SelectBits(k.bits, idx)
}

func (f frozenSeg) scan(k *probe, from int, fn func(j, pos int, val func() string) bool) int {
	return f.EnumeratePrefix(k.key, from, fn)
}
