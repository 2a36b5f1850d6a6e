package store

import (
	"runtime"

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

// Every method that reads the trie holds the Frozen until it returns. A
// mapped generation is unmapped by finalizer once nothing reaches its
// Frozen, and to the collector a value is dead after its last use, not when
// the call made on it returns: without the hold, a reader whose view a
// compaction retired mid-query — its own reference already spent on
// starting the query — would fault on unmapped memory.

func (f frozenSeg) Access(pos int) string {
	s := f.Frozen.Access(pos)
	runtime.KeepAlive(f.Frozen)
	return s
}

func (f frozenSeg) Iterate(l, r int, fn func(pos int, s string) bool) {
	f.Frozen.Iterate(l, r, fn)
	runtime.KeepAlive(f.Frozen)
}

func (f frozenSeg) rank(k *probe, pos int) (n int) {
	if k.prefix {
		n = f.t.RankPrefixBits(k.bits, pos)
	} else {
		n = f.t.RankBits(k.bits, pos)
	}
	runtime.KeepAlive(f.Frozen)
	return n
}

func (f frozenSeg) sel(k *probe, idx int) (pos int, ok bool) {
	if k.prefix {
		pos, ok = f.t.SelectPrefixBits(k.bits, idx)
	} else {
		pos, ok = f.t.SelectBits(k.bits, idx)
	}
	runtime.KeepAlive(f.Frozen)
	return pos, ok
}

// scan is the trie's prefix enumeration with the probe's bits; a value
// that is asked for is decoded straight into the caller's bytes.
func (f frozenSeg) scan(k *probe, from int, fn func(j, pos int, val valFn) bool) int {
	count := f.t.EnumeratePrefixBits(k.bits, from, fn)
	runtime.KeepAlive(f.Frozen)
	return count
}
