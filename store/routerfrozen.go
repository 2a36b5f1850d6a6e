package store

import "repro/internal/wavelettree"

// The freeze step: when the watermark passes a chunk boundary, the
// newly sealed chunk's shard ids are re-encoded from the 32-bit slab
// into a wavelettree.Matrix — ⌈log₂ shards⌉ bit planes, each a plain
// bitvector with its rank directory, none at all for one shard — and the
// slab reference is dropped so the 16 KiB of uint32s can be collected.
// The frozen prefix then answers at/rank with one bitvector rank per
// plane and selectShard with one binary search over chunk boundaries
// plus an in-chunk select, while the fill path keeps its lock-free slab
// writes on the tail.
//
// Freezing runs synchronously inside seal() under growMu — the freeze
// is one O(routerChunkLen) pass per plane plus the same prefix-sum walk
// seal already did, and doing it inline keeps the invariant that the
// frozen region and the cum table advance in lockstep (len(cum) ==
// len(frozen)+1), which is what lets every read path dispatch on a
// single chunk-index comparison.

// seal freezes every chunk now fully below the watermark: for each, it
// extends the prefix sums by one row, builds the chunk's matrix, and
// releases the uint32 slab. The new view is published as one pointer
// swap so readers never see a released slab without its frozen
// replacement.
func (r *router) seal() {
	r.growMu.Lock()
	defer r.growMu.Unlock()
	full := int(r.watermark.Load() >> routerChunkShift)
	v := r.view.Load()
	if len(v.frozen) >= full {
		return
	}
	nv := &routerView{
		chunks: append([]*routerChunk(nil), v.chunks...),
		frozen: append(make([]*wavelettree.Matrix, 0, full), v.frozen...),
		cum:    append(make([][]int32, 0, full+1), v.cum...),
	}
	width := routerWidth(r.shards)
	ids := make([]uint64, routerChunkLen)
	for i := len(nv.frozen); i < full; i++ {
		c := nv.chunks[i]
		next := make([]int32, r.shards)
		copy(next, nv.cum[i])
		for j := range ids {
			s := c.ids[j].Load() - 1 // filled: the chunk is below the watermark
			ids[j] = uint64(s)
			next[s]++
		}
		nv.frozen = append(nv.frozen, wavelettree.NewMatrix(ids, width))
		nv.cum = append(nv.cum, next)
		nv.chunks[i] = nil
	}
	r.view.Store(nv)
}

// RouterInfo reports the interleave router's in-memory representation:
// how much of it has been frozen into wavelet matrices, how much
// still rides in live uint32 slabs, and the footprint of each part —
// and, beside it, the size of the ROUTER log on disk.
type RouterInfo struct {
	Elems        int // positions below the watermark
	Bits         int // total footprint: frozen + tail slabs + prefix sums
	FrozenBits   int // frozen-chunk wavelet matrices
	TailBits     int // live uint32 slabs (32 bits/slot)
	FrozenChunks int
	TailChunks   int
	LogBytes     int // the ROUTER file's size; 0 when unknown
}

// BitsPerElem returns the average router footprint per routed element.
func (ri RouterInfo) BitsPerElem() float64 {
	if ri.Elems == 0 {
		return 0
	}
	return float64(ri.Bits) / float64(ri.Elems)
}

// info snapshots the router's representation split.
func (r *router) info() RouterInfo {
	v := r.view.Load()
	ri := RouterInfo{
		Elems:        int(r.watermark.Load()),
		FrozenChunks: len(v.frozen),
	}
	for _, f := range v.frozen {
		ri.FrozenBits += f.SizeBits()
	}
	for _, c := range v.chunks {
		if c != nil {
			ri.TailBits += routerChunkLen * 32
			ri.TailChunks++
		}
	}
	ri.Bits = ri.FrozenBits + ri.TailBits + len(v.cum)*r.shards*32
	return ri
}
