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

// matchCursor is a segment's matches of one prefix probe behind a pull
// cursor — the one form prefix matches cross the segment seam in. A plain
// view reads its segments' cursors one after the other; a merge of several
// shards' streams needs the pull form, advancing whichever stream it emitted
// from, a match at a time. Making one is the probe's descent into the
// segment; every method after that works from what the descent remembered.
// A cursor is not safe for concurrent use and holds no lock between calls.
type matchCursor interface {
	// rankAt counts the matches at positions before pos; it does not move
	// the cursor.
	rankAt(pos int) int
	// seek makes match j (0-based) the one the following next returns.
	seek(j int)
	// next returns the position of the next match, ok=false past the last.
	next() (pos int, ok bool)
	// value appends to dst the value of the match next last returned.
	value(dst []byte) []byte
	// close ends the enumeration; the cursor must not be used after it.
	close()
}

// frozenCursor is the trie's own PrefixCursor, holding the generation's
// Frozen the way frozenSeg's methods do.
type frozenCursor struct {
	f *wavelettrie.Frozen
	c *succinct.PrefixCursor
	j int // index of the match next returns
}

func (f frozenSeg) cursor(k *probe) matchCursor {
	fc := &frozenCursor{f: f.Frozen, c: f.t.PrefixCursor(k.bits)}
	runtime.KeepAlive(f.Frozen)
	return fc
}

func (fc *frozenCursor) rankAt(pos int) int {
	n := fc.c.RankAt(pos)
	runtime.KeepAlive(fc.f)
	return n
}

func (fc *frozenCursor) seek(j int) {
	fc.j = j
	fc.c.Seek(j)
}

func (fc *frozenCursor) next() (int, bool) {
	pos, ok := fc.c.Next()
	runtime.KeepAlive(fc.f)
	if ok {
		fc.j++
	}
	return pos, ok
}

// value decodes the match straight into the caller's bytes.
func (fc *frozenCursor) value(dst []byte) []byte {
	out := fc.c.AppendValue(dst, fc.j-1)
	runtime.KeepAlive(fc.f)
	return out
}

func (fc *frozenCursor) close() {
	fc.c.Close()
	runtime.KeepAlive(fc.f)
}
