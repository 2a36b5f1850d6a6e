package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/wavelettree"
)

// The router is the sharded store's interleave map: the sequence of
// shard ids in global append order. Position arithmetic over it is what
// stitches per-shard answers into global ones (see snapshot.go):
//
//	shard owning global position g   = at(g)
//	local position of g in its shard = rank(at(g), g)
//	global position of shard s's     = selectShard(s, i)
//	  i-th local element
//
// In memory it is a two-region structure. The active tail is a chunked,
// append-only array of uint32 shard ids: writers fill disjoint slots
// lock-free (the slot index is the record's global sequence number),
// and a watermark publishes the longest contiguous filled prefix — the
// only part snapshots may read. Behind the tail, every chunk the
// watermark has fully passed is frozen into a wavelet matrix over its
// shard ids (wavelettree.Matrix, ⌈log₂ shards⌉ bit planes: that many bits
// per element plus the planes' rank directories, instead of 32) and its
// uint32 slab is released — the router is itself the small-alphabet
// access/rank/select problem this repo reproduces, so sealed regions use
// the same structure as the columns' planes. See routerfrozen.go for the
// freeze step.
//
// On disk it is the ROUTER log — the same checksummed record framing as
// the WAL under its own magic and version, each record a batch of shard
// ids packed at the frozen chunks' width (see appendRecord) — persisted
// ahead of every shard flush (the seal barrier) and rewritten fresh on
// every open. Version 3 is the only version read or written: version 2
// spent a byte per id, and an older log is refused whole, untouched.
const (
	routerMagic   = 0x52545257 // "WRTR" little-endian
	routerVersion = 3
	routerName    = "ROUTER"

	routerChunkShift = 12
	routerChunkLen   = 1 << routerChunkShift
	routerChunkMask  = routerChunkLen - 1

	routerBatchLen = 1 << 15 // shard ids per ROUTER log record
)

// routerChunk is one fixed-size slab of the interleave map's tail.
// Slots hold shard id + 1; zero means not yet filled.
type routerChunk struct {
	ids [routerChunkLen]atomic.Uint32
}

// routerView is the router's atomically-published read state. The three
// slices advance together — swapping them as one pointer is what lets
// freezing release a chunk's uint32 slab without readers observing a
// frozen list from before the swap next to a nil slab from after it.
//
// Invariants: len(cum) == len(frozen)+1; chunks[i] == nil exactly when
// i < len(frozen); len(chunks) >= len(frozen) whenever the watermark
// has entered the tail.
type routerView struct {
	// chunks[i] is chunk i's live uint32 slab, nil once frozen.
	chunks []*routerChunk
	// frozen[i] is the wavelet matrix of sealed chunk i.
	frozen []*wavelettree.Matrix
	// cum[i][s] = occurrences of shard s in chunks [0, i); one row per
	// frozen chunk boundary plus the leading zero row.
	cum [][]int32
}

// router is the in-memory interleave map. All methods are safe for
// concurrent use; rank/selectShard/at/locate may only be asked about
// positions below a watermark value the caller has already loaded.
type router struct {
	shards    int
	watermark atomic.Uint64
	view      atomic.Pointer[routerView]
	growMu    sync.Mutex
}

func newRouter(shards int) *router {
	r := &router{shards: shards}
	r.view.Store(&routerView{cum: [][]int32{make([]int32, shards)}})
	return r
}

// fill records that global position g belongs to shard, then advances
// the watermark over every contiguously filled slot. Distinct positions
// are written by distinct appenders, so fills never contend on a slot;
// g is at or above the watermark, so its chunk is never frozen.
func (r *router) fill(g uint64, shard int) {
	ci := int(g >> routerChunkShift)
	v := r.view.Load()
	if ci >= len(v.chunks) {
		v = r.grow(ci)
	}
	v.chunks[ci].ids[g&routerChunkMask].Store(uint32(shard) + 1)
	r.advance()
}

// grow extends the chunk list through index ci, copy-on-write.
func (r *router) grow(ci int) *routerView {
	r.growMu.Lock()
	defer r.growMu.Unlock()
	v := r.view.Load()
	if ci < len(v.chunks) {
		return v
	}
	nv := &routerView{
		chunks: make([]*routerChunk, ci+1),
		frozen: v.frozen,
		cum:    v.cum,
	}
	copy(nv.chunks, v.chunks)
	for i := len(v.chunks); i <= ci; i++ {
		nv.chunks[i] = &routerChunk{}
	}
	r.view.Store(nv)
	return nv
}

// advance publishes the longest contiguous filled prefix, one CAS per
// slot. Every filler runs this after its store, so whichever filler
// runs last pushes the watermark through; a gap left by an in-flight
// append stalls it until that append's own advance resumes the sweep.
func (r *router) advance() {
	for {
		w := r.watermark.Load()
		v := r.view.Load()
		ci := int(w >> routerChunkShift)
		if ci >= len(v.chunks) {
			return
		}
		if ci < len(v.frozen) {
			// Stale w: the chunk froze — and its slab was released —
			// between the two loads above. Retry with a fresh watermark.
			continue
		}
		if v.chunks[ci].ids[w&routerChunkMask].Load() == 0 {
			return
		}
		if r.watermark.CompareAndSwap(w, w+1) && (w+1)&routerChunkMask == 0 {
			r.seal()
		}
	}
}

// at returns the shard owning global position g (g below a loaded
// watermark): a matrix access — one bit and a rank per plane but the
// last — on the frozen prefix, a slot load on the tail.
func (r *router) at(g uint64) int {
	v := r.view.Load()
	ci := int(g >> routerChunkShift)
	if ci < len(v.frozen) {
		return int(v.frozen[ci].Access(int(g & routerChunkMask)))
	}
	return int(v.chunks[ci].ids[g&routerChunkMask].Load()) - 1
}

// locate resolves global position g to (owning shard, local position in
// that shard) in one pass — at(g) and rank(at(g), g) fused, so the view
// load and chunk dispatch happen once per Access instead of twice.
func (r *router) locate(g uint64) (shard, local int) {
	v := r.view.Load()
	ci := int(g >> routerChunkShift)
	if ci < len(v.frozen) {
		f := v.frozen[ci]
		off := int(g & routerChunkMask)
		shard = int(f.Access(off))
		return shard, int(v.cum[ci][shard]) + f.Rank(uint64(shard), off)
	}
	shard = int(v.chunks[ci].ids[g&routerChunkMask].Load()) - 1
	return shard, v.tailRank(shard, g)
}

// tailRank counts positions of shard in [0, pos) given that pos lies in
// the unfrozen tail of view v: the last frozen prefix sum plus a scan
// of the live slabs.
func (v *routerView) tailRank(shard int, pos uint64) int {
	sealed := len(v.cum) - 1
	total := int(v.cum[sealed][shard])
	want := uint32(shard) + 1
	for g := uint64(sealed) << routerChunkShift; g < pos; g++ {
		if v.chunks[g>>routerChunkShift].ids[g&routerChunkMask].Load() == want {
			total++
		}
	}
	return total
}

// rank counts positions of shard in [0, pos): the chunk's prefix sum
// plus a matrix rank on the frozen prefix, a bounded scan on the tail.
func (r *router) rank(shard int, pos uint64) int {
	v := r.view.Load()
	ci := int(pos >> routerChunkShift)
	if ci < len(v.frozen) {
		return int(v.cum[ci][shard]) + v.frozen[ci].Rank(uint64(shard), int(pos&routerChunkMask))
	}
	return v.tailRank(shard, pos)
}

// selectShard returns the global position of shard's idx-th (0-based)
// local element. The caller guarantees it exists below the watermark —
// i.e. idx < rank(shard, watermark).
func (r *router) selectShard(shard, idx int) int { return r.view.Load().selectShard(shard, idx) }

func (v *routerView) selectShard(shard, idx int) int {
	// The last chunk boundary with at most idx occurrences before it:
	// the answer lies at or after it, and — because the next boundary
	// has more than idx — within one chunk when that chunk is frozen.
	i := sort.Search(len(v.cum), func(i int) bool { return int(v.cum[i][shard]) > idx }) - 1
	if i < len(v.frozen) {
		off, _ := v.frozen[i].Select(uint64(shard), idx-int(v.cum[i][shard]))
		return i<<routerChunkShift + off
	}
	return v.scanTail(shard, idx, i<<routerChunkShift, int(v.cum[i][shard]))
}

// scanTail returns the global position of shard's idx-th element, which
// lies on the unfrozen tail at or after g, seen of shard's elements lying
// before g: a scan of the live slabs from g on.
func (v *routerView) scanTail(shard, idx, g, seen int) int {
	want := uint32(shard) + 1
	for end := len(v.chunks) << routerChunkShift; g < end; g++ {
		if v.chunks[g>>routerChunkShift].ids[g&routerChunkMask].Load() == want {
			if seen == idx {
				return g
			}
			seen++
		}
	}
	panic(fmt.Sprintf("store: router selectShard(%d,%d) beyond watermark (internal error)", shard, idx))
}

// routerCursor is selectShard for one shard's local positions asked in
// ascending order, as a merge of the shards' match streams asks them. An
// answer on the unfrozen tail resumes the slot scan just past the last
// answer instead of at the chunk boundary, so a stream through the tail
// reads each slot once, not once a match.
type routerCursor struct {
	r     *router
	shard int
	idx   int // the local position last asked for; -1 before the first
	g     int // its global position
}

func (c *routerCursor) selectShard(idx int) int {
	v := c.r.view.Load()
	if c.idx >= 0 && idx > c.idx && c.g>>routerChunkShift >= len(v.frozen) {
		c.g = v.scanTail(c.shard, idx, c.g+1, c.idx+1)
	} else {
		c.g = v.selectShard(c.shard, idx)
	}
	c.idx = idx
	return c.g
}

// bulkLoad installs a recovered global order wholesale — open-time only,
// before any concurrent use. Every full chunk freezes immediately.
func (r *router) bulkLoad(order []byte) {
	if len(order) == 0 {
		return
	}
	v := r.grow((len(order) - 1) >> routerChunkShift)
	for g, s := range order {
		v.chunks[g>>routerChunkShift].ids[uint64(g)&routerChunkMask].Store(uint32(s) + 1)
	}
	r.watermark.Store(uint64(len(order)))
	r.seal()
}

func routerPath(dir string) string { return filepath.Join(dir, routerName) }

// routerWidth is the bits a shard id takes in a store of shards
// partitions, on disk and in a frozen chunk alike: ⌈log₂ shards⌉, none
// for one shard.
func routerWidth(shards int) int { return bits.Len(uint(shards - 1)) }

// appendRecord appends the ROUTER record payload for global positions
// [from, to), below a watermark the caller has loaded: the uvarint
// count, then each position's shard id in routerWidth bits, LSB-first,
// the last byte zero-padded.
func (r *router) appendRecord(dst []byte, from, to uint64) []byte {
	dst = binary.AppendUvarint(dst, to-from)
	width := uint(routerWidth(r.shards))
	var acc uint64 // pending bits, low first; fewer than 8 between ids
	var n uint
	for g := from; g < to; g++ {
		acc |= uint64(r.at(g)) << n
		for n += width; n >= 8; n -= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// appendLog frames positions [from, to) onto buf as ROUTER records of
// at most routerBatchLen ids each, returning the buffer and the number
// of records framed.
func (r *router) appendLog(buf []byte, from, to uint64) ([]byte, int) {
	nrec := 0
	for ; from < to; nrec++ {
		end := min(to, from+routerBatchLen)
		start := len(buf)
		buf = r.appendRecord(append(buf, make([]byte, walRecHeaderLen)...), from, end)
		frameRecord(buf[start:])
		from = end
	}
	return buf, nrec
}

// decodeRouterRecord appends the shard ids of a ROUTER record payload to
// ids. It reports false, leaving ids as they were, for a payload the
// writer cannot have produced for a store of shards partitions: an empty
// batch or one over routerBatchLen, a count not in its shortest uvarint
// form, a length other than the count's packed bytes, nonzero padding,
// or an id of no shard.
func decodeRouterRecord(ids, p []byte, shards int) ([]byte, bool) {
	count, k := binary.Uvarint(p)
	if k <= 0 || (k > 1 && p[k-1] == 0) || count == 0 || count > routerBatchLen {
		return ids, false
	}
	width := uint(routerWidth(shards))
	body := p[k:]
	if uint64(len(body)) != (count*uint64(width)+7)/8 {
		return ids, false
	}
	start := len(ids)
	var acc uint64
	var n uint
	for i := uint64(0); i < count; i++ {
		for ; n < width; n += 8 {
			acc |= uint64(body[0]) << n
			body = body[1:]
		}
		id := acc & (1<<width - 1)
		acc >>= width
		n -= width
		if id >= uint64(shards) {
			return ids[:start], false
		}
		ids = append(ids, byte(id))
	}
	if acc != 0 {
		return ids[:start], false
	}
	return ids, true
}

// validRouterRecord returns parseLog's payload check for the ROUTER log
// of a store of shards partitions. A record that fails it is corrupt,
// like a torn one: the log's trusted prefix ends before it.
func validRouterRecord(shards int) func([]byte) bool {
	return func(p []byte) bool {
		_, ok := decodeRouterRecord(nil, p, shards)
		return ok
	}
}

// readRouterLog returns the global shard-id order dir/ROUTER claims for a
// store of shards partitions, truncation-tolerant like WAL replay: a torn
// or corrupt tail record is dropped, anything before it is trusted (each
// record is checksummed and its ids vetted against shards).
func readRouterLog(dir string, shards int) ([]byte, error) {
	data, err := os.ReadFile(routerPath(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	records, _, err := parseLog(data, routerMagic, routerVersion, validRouterRecord(shards))
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", routerPath(dir), err)
	}
	var ids []byte
	for _, rec := range records {
		ids, _ = decodeRouterRecord(ids, rec, shards)
	}
	return ids, nil
}

// writeRouterLog rewrites dir/ROUTER with r's order through its
// watermark, returning the open log positioned for further appends. The
// replacement is atomic (temp file + fsync + rename, like the manifest):
// for flushed records the old ROUTER is the only durable copy of the
// interleave, so a crash mid-rewrite must leave either the old log or
// the complete new one, never a truncated file.
func writeRouterLog(dir string, r *router) (*wal, error) {
	img, _ := r.appendLog(logHeader(routerMagic, routerVersion), 0, r.watermark.Load())
	if err := writeFileAtomic(dir, routerName, img); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(routerPath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, path: routerPath(dir)}, nil
}
