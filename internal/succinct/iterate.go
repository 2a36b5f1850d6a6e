package succinct

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/bitstr"
	"repro/internal/dfuds"
	"repro/internal/eliasfano"
	"repro/internal/rrr"
)

// This file implements the sequential extraction layer of the frozen
// trie: §5's sequential access, run top-down for a batch at a time — the
// range extraction of Navarro's "Wavelet trees for all" (§5.1) and of
// Gagie, Navarro and Puglisi. Repeated Access costs O(|s| + h·C_rank)
// per element, each level paying an RRR sample seek and a block decode.
// The extractor instead takes a sorted batch of indices of one node's
// subsequence and visits every node on the batch's paths once, in
// preorder: at each it reads the batch's bits and stably partitions the
// indices into the two children, with their positions there. Preorder is
// the order the trie's components are laid out in — labels, β segments
// and both directories — so the whole batch is one forward pass over
// each (rrr.Reader, eliasfano.Iter), and no block is decoded twice. One
// shared path builder carries the bits from the batch's node down, so
// each distinct leaf's string is assembled once, however many of the
// batch's elements it holds. Iter, EnumerateBits and Enumerate run it on
// pages of at most pageLen consecutive positions from the root; the
// prefix cursor (cursor.go) on a page of match indices from the prefix's
// node. Compaction's reference path, Snapshot.Slice, MarshalBinary
// exports and a served page of values build on this layer.

// pageLen bounds the batch a range is extracted in.
const pageLen = 256

// extractor decodes batches of elements top-down; see above. Its buffers
// are kept from one batch to the next.
type extractor struct {
	bits   rrr.Reader
	labels dirCursor // L's delimiters, by preorder id
	segs   dirCursor // the β segments' starts, by internal index
	path   bitstr.Builder
	stack  []frame

	// The batch at a node is a set of its subsequence's indices, ascending,
	// kept as runs of consecutive ones — a run maps to one run in each
	// child, so a page of consecutive positions stays one run all the way
	// down and its bits are read a word at a time. runs holds the regions of
	// the frames on the stack, each child's allocated after its parent's;
	// zruns and oruns collect a node's two children's. slot lists the
	// batch's elements grouped by node, ascending within one: slot[i] is an
	// element's place in the batch; oslot holds the 1-side of a partition.
	runs, zruns, oruns []span
	slot, oslot        []int32

	// The result: leaf[k] is the leaf element k of the batch lies at, an
	// index into spans, and each span a leaf's string in arena, from a
	// word boundary.
	leaf  []int32
	arena []uint64
	spans []span

	// The leaves decoded, for PrefixCursor.Values: leaf i's bytes are
	// text[ends[i]:ends[i+1]], and its string, for Strings and Enumerate,
	// strs[i].
	text []byte
	ends []int
	strs []string
}

// span is a run of n things from off: a leaf's bits in the arena, or a
// run of a node's indices.
type span struct{ off, n int }

// frame is a node the extraction has yet to visit: the batch elements
// slot[sa:sb], the runs runs[ra:rb] of indices of its subsequence, and the
// path: its parent's, at bits, plus the branch bit into it (none for the
// batch's own node).
type frame struct {
	nd     dfuds.BinaryNode
	sa, sb int32
	ra, rb int32
	at     int
	bit    int8 // -1: the batch's node
}

// dirCursor reads an Elias–Fano directory forward, a pair of consecutive
// values at a time — a node's two delimiters — for non-decreasing
// indices; when the index steps by one the pair's first value is the
// previous pair's second.
type dirCursor struct {
	it   eliasfano.Iter
	i    int // the index of last
	last uint64
}

func newDirCursor(it eliasfano.Iter) dirCursor { return dirCursor{it: it, i: -1} }

// pair returns values i and i+1.
func (d *dirCursor) pair(i int) (int, int) {
	if i != d.i {
		d.it.SkipTo(i)
		d.last, _ = d.it.Next()
	}
	a := d.last
	d.last, _ = d.it.Next()
	d.i = i + 1
	return int(a), int(d.last)
}

// run extracts the elements at indices idx, strictly ascending, of nd's
// subsequence, behind the first headLen bits of head — nd's root path,
// which the caller knows. Each batch is a forward pass of its own.
func (x *extractor) run(t *Trie, nd dfuds.BinaryNode, head []uint64, headLen int, idx []int) {
	x.runs = x.runs[:0]
	for _, i := range idx {
		x.runs = appendSpan(x.runs, i, 1)
	}
	x.extract(t, nd, head, headLen, len(idx))
}

// extract is run for the m indices x.runs holds.
func (x *extractor) extract(t *Trie, nd dfuds.BinaryNode, head []uint64, headLen int, m int) {
	x.bits = t.bits.Reader()
	x.labels = newDirCursor(t.labelDir.Offsets())
	x.segs = newDirCursor(t.bvOffsets.Iter())
	x.slot, x.oslot, x.leaf = grow(x.slot, m), grow(x.oslot, m), grow(x.leaf, m)
	for k := range x.slot {
		x.slot[k] = int32(k)
	}
	x.arena, x.spans = x.arena[:0], x.spans[:0]
	x.path.Reset()
	x.path.AppendRange(head, 0, headLen)
	x.stack = append(x.stack[:0], frame{nd: nd, sb: int32(m), rb: int32(len(x.runs)), at: headLen, bit: -1})
	lw := t.labels.Words()
	for len(x.stack) > 0 {
		f := x.stack[len(x.stack)-1]
		x.stack = x.stack[:len(x.stack)-1]
		x.runs = x.runs[:f.rb] // the regions past it were the visited subtrees'
		x.path.Truncate(f.at)
		if f.bit >= 0 {
			x.path.AppendBit(byte(f.bit))
		}
		lo, hi := x.labels.pair(f.nd.ID())
		x.path.AppendRange(lw, lo, hi-lo)
		if t.tree.IsLeaf(f.nd.Pos) {
			k := int32(len(x.spans))
			x.spans = append(x.spans, span{len(x.arena), x.path.Len()})
			x.arena = append(x.arena, x.path.View().Words()...)
			for _, s := range x.slot[f.sa:f.sb] {
				x.leaf[s] = k
			}
			continue
		}
		// Every run's bits, a word at a time, and the stable partition of
		// the elements: the 0-side compacts in place (it never overtakes the
		// reading), the 1-side waits in oslot. Run [a, a+n) with r ones
		// before it and o in it goes to [a-r, a-r+n-o) and [r, r+o).
		start, _ := x.segs.pair(f.nd.Internal)
		s, z, o := f.sa, f.sa, int32(0)
		x.zruns, x.oruns = x.zruns[:0], x.oruns[:0]
		for _, rn := range x.runs[f.ra:f.rb] {
			var before, ones int
			for off := 0; off < rn.n; off += 64 {
				c := min(64, rn.n-off)
				w, r := x.bits.ReadIn(start, rn.off+off, c)
				if off == 0 {
					before = r
				}
				for j := 0; j < c; j++ {
					bit := int32(w >> uint(j) & 1)
					e := x.slot[s]
					s++
					x.slot[z], x.oslot[o] = e, e
					z += 1 - bit
					o += bit
				}
				ones += bits.OnesCount64(w)
			}
			x.zruns = appendSpan(x.zruns, rn.off-before, rn.n-ones)
			x.oruns = appendSpan(x.oruns, before, ones)
		}
		copy(x.slot[z:f.sb], x.oslot[:o])
		// The 1-child's region first and the 0-child's after it, pushed in
		// that order: the 0-child is visited first (preorder), and popping a
		// frame frees every region allocated after its own.
		at := x.path.Len()
		if o > 0 {
			ra := int32(len(x.runs))
			x.runs = append(x.runs, x.oruns...)
			x.stack = append(x.stack, frame{nd: t.tree.BinaryChild(f.nd, 1), sa: z, sb: f.sb, ra: ra, rb: int32(len(x.runs)), at: at, bit: 1})
		}
		if z > f.sa {
			ra := int32(len(x.runs))
			x.runs = append(x.runs, x.zruns...)
			x.stack = append(x.stack, frame{nd: t.tree.BinaryChild(f.nd, 0), sa: f.sa, sb: z, ra: ra, rb: int32(len(x.runs)), at: at, bit: 0})
		}
	}
}

// appendSpan appends the run [off, off+n) to runs, extending the last run
// when the two touch and dropping an empty one.
func appendSpan(runs []span, off, n int) []span {
	switch {
	case n == 0:
		return runs
	case len(runs) > 0 && runs[len(runs)-1].off+runs[len(runs)-1].n == off:
		runs[len(runs)-1].n += n
		return runs
	}
	return append(runs, span{off, n})
}

// grow returns s resliced to n elements, reallocated when it is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// value returns element k of the last batch; it aliases the extractor's
// storage and is valid until the next run.
func (x *extractor) value(k int) bitstr.BitString { return x.leafBits(int(x.leaf[k])) }

// leafBits returns the string of the i-th leaf the last batch reached.
func (x *extractor) leafBits(i int) bitstr.BitString {
	sp := x.spans[i]
	return bitstr.FromWordsShared(x.arena[sp.off:], sp.n)
}

// extractors recycles extractors between the passes of a read path: a
// served page's buffers are a dozen slices, and a fresh set for every page
// would be most of what the page allocates. release clears what reaches
// the trie and the strings handed out, so a pooled extractor pins no
// generation and no value.
var extractors = sync.Pool{New: func() any { return new(extractor) }}

func (x *extractor) release() {
	x.bits, x.labels, x.segs = rrr.Reader{}, dirCursor{}, dirCursor{}
	clear(x.strs)
	extractors.Put(x)
}

// Iter is an in-order enumerator over a position range of the trie,
// extracting it a page at a time: what EnumerateBits and Enumerate run
// on. It is not safe for concurrent use (the underlying Trie is; each
// goroutine should take its own Iter).
type Iter struct {
	t      *Trie
	x      *extractor // nil until the first page
	lo, hi int        // the extracted page's positions
	pos    int
	end    int
}

// Iter returns an enumerator over the elements of positions [l, r).
func (t *Trie) Iter(l, r int) *Iter {
	if l < 0 || r > t.n || l > r {
		panic(fmt.Sprintf("succinct: Iter range [%d,%d) out of range [0,%d)", l, r, t.n))
	}
	return &Iter{t: t, lo: l, hi: l, pos: l, end: r}
}

// Close ends the enumeration and hands the iterator's buffers back for the
// next one to reuse. It is optional — an unclosed Iter is simply garbage —
// and the Iter must not be used after it.
func (it *Iter) Close() {
	if it.x != nil {
		it.x.release()
		it.x = nil
	}
	it.pos = it.end
}

// Valid reports whether elements are left to return.
func (it *Iter) Valid() bool { return it.pos < it.end }

// page returns the extraction holding the current position, extracting
// the next page when the last is used up, and the position's index in it.
func (it *Iter) page() (x *extractor, k int, fresh bool) {
	if it.pos == it.hi {
		if it.x == nil {
			it.x = extractors.Get().(*extractor)
		}
		it.lo, it.hi = it.pos, min(it.pos+pageLen, it.end)
		it.x.runs = append(it.x.runs[:0], span{it.lo, it.hi - it.lo})
		it.x.extract(it.t, it.t.tree.BinaryRoot(), nil, 0, it.hi-it.lo)
		fresh = true
	}
	return it.x, it.pos - it.lo, fresh
}

// EnumerateBits calls fn with each element of positions [l, r) in
// order, stopping early if fn returns false. The BitString fn receives
// aliases the extraction's storage and is valid only for the duration of
// the call.
func (t *Trie) EnumerateBits(l, r int, fn func(pos int, s bitstr.BitString) bool) {
	it := t.Iter(l, r)
	defer it.Close()
	for ; it.Valid(); it.pos++ {
		x, k, _ := it.page()
		if !fn(it.pos, x.value(k)) {
			return
		}
	}
}

// Enumerate is EnumerateBits decoded: fn receives each element as a
// string. Each distinct value of a page is decoded, and made a string,
// once — the elements it holds share it.
func (t *Trie) Enumerate(l, r int, fn func(pos int, s string) bool) {
	it := t.Iter(l, r)
	defer it.Close()
	for ; it.Valid(); it.pos++ {
		x, k, fresh := it.page()
		if fresh {
			x.decodeLeaves()
			x.strs = x.strs[:0]
			for i := range x.spans {
				x.strs = append(x.strs, string(x.text[x.ends[i]:x.ends[i+1]]))
			}
		}
		if !fn(it.pos, x.strs[x.leaf[k]]) {
			return
		}
	}
}
