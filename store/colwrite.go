package store

import (
	"math/bits"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bitvec"
)

// Column freeze path: at flush the sealed memtable's row arrays — and
// at compaction the victim generations' frozen columns — stream through
// a colFeeder into buildFrozenCols, which lays out each column's
// presence plus its numeric bit planes (over the values or over their
// ranks in a dictionary, whichever is smaller) or blob payload, and
// writeColumnFiles persists the images beside the generation's .wt
// file. Like the streaming value freeze, no per-row materialization
// happens: the builder sees one (position, cell) pair at a time.

// colFeeder streams a generation's column cells at freeze time, one
// column at a time, present cells only, in ascending position order.
type colFeeder interface {
	feedColumn(col int, fn func(pos int, v Value) bool)
}

// buildFrozenCols builds the frozen column set for n rows of schema
// from feed. A nil feed produces all-NULL columns — the shape written
// when a generation predates any payloads.
func buildFrozenCols(schema []ColumnSpec, n int, feed colFeeder) *frozenCols {
	fc := &frozenCols{n: n, cols: make([]frozenCol, len(schema))}
	for j := range schema {
		c := &fc.cols[j]
		c.kind = schema[j].Kind
		pb := bitvec.NewBuilder(n)
		var vals []uint64
		var top uint64 // the largest value
		if c.kind == ColBytes {
			c.offs = []uint64{0}
		}
		if feed != nil {
			feed.feedColumn(j, func(pos int, v Value) bool {
				pb.AppendRun(0, pos-pb.Len())
				pb.AppendBit(1)
				if c.kind == ColBytes {
					c.payload = append(c.payload, v.b...)
					c.offs = append(c.offs, uint64(len(c.payload)))
				} else {
					vals = append(vals, v.num)
					top = max(top, v.num)
				}
				return true
			})
		}
		pb.AppendRun(0, n-pb.Len())
		c.setPresence(pb.Build())
		if c.kind == ColBytes {
			continue
		}
		c.width = bits.Len64(top)
		if c.dict = buildDict(vals, c.width); c.dict != nil {
			for i, v := range vals {
				rank, _ := slices.BinarySearch(c.dict, v)
				vals[i] = uint64(rank)
			}
			c.width = bits.Len(uint(len(c.dict) - 1))
		}
		c.levels, c.zeros = buildPlanes(vals, c.width)
	}
	return fc
}

// buildDict returns the sorted distinct values of vals when a dictionary
// of them plus planes over their ranks is smaller than width raw planes,
// else nil: D table entries of 64 bits and ⌈log₂ D⌉ bits per value
// against width bits per value. The sum only grows with D, so the count
// stops at the first value that takes it to the raw cost — a column
// whose values hardly repeat costs a prefix of the pass, not a table.
func buildDict(vals []uint64, width int) []uint64 {
	raw := width * len(vals)
	if raw == 0 {
		return nil
	}
	seen := make(map[uint64]struct{})
	for i, v := range vals {
		if i > 0 && v == vals[i-1] {
			continue
		}
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			if d := len(seen); 64*d+bits.Len(uint(d-1))*len(vals) >= raw {
				return nil
			}
		}
	}
	dict := make([]uint64, 0, len(seen))
	for v := range seen {
		dict = append(dict, v)
	}
	slices.Sort(dict)
	return dict
}

// buildPlanes lays out the level-wise wavelet tree of a value set:
// plane d records bit width−1−d of every value in the order reached by
// stably partitioning the previous plane's order on its bit (zeros
// first). That global stable partition is exactly the pointerless
// layout rangeCount and colValue descend with rank arithmetic: the
// children of node [a, b) at depth d sit at [Rank0(a), Rank0(b)) and
// [zeros[d]+Rank1(a), zeros[d]+Rank1(b)) of depth d+1. vals is
// permuted in place.
func buildPlanes(vals []uint64, width int) ([]*bitvec.Vector, []int) {
	levels := make([]*bitvec.Vector, width)
	zeros := make([]int, width)
	cur := vals
	next := make([]uint64, len(vals))
	for d := 0; d < width; d++ {
		shift := uint(width - 1 - d)
		lb := bitvec.NewBuilder(len(cur))
		nz := 0
		for _, v := range cur {
			if v>>shift&1 == 0 {
				nz++
			}
		}
		zeroI, oneI := 0, nz
		for _, v := range cur {
			if v>>shift&1 == 0 {
				lb.AppendBit(0)
				next[zeroI] = v
				zeroI++
			} else {
				lb.AppendBit(1)
				next[oneI] = v
				oneI++
			}
		}
		levels[d] = lb.Build()
		zeros[d] = nz
		cur, next = next, cur
	}
	return levels, zeros
}

// writeColumnFiles atomically persists a generation's column images and
// returns their sizes and CRCs for the manifest entry (cdCRC 0 when the
// schema has no blob columns and no .cd file exists).
func writeColumnFiles(dir string, id uint64, fc *frozenCols) (colBytes, cdBytes int, colCRC, cdCRC uint32, err error) {
	colData, cdData := encodeColumns(fc)
	if err = writeFileAtomic(dir, colFileName(id), colData); err != nil {
		return 0, 0, 0, 0, err
	}
	colCRC = genCRC(colData)
	if cdData != nil {
		if err = writeFileAtomic(dir, colDirFileName(id), cdData); err != nil {
			return 0, 0, 0, 0, err
		}
		cdCRC = genCRC(cdData)
	}
	return len(colData), len(cdData), colCRC, cdCRC, nil
}

// removeColumnFiles drops a generation's column images, ignoring
// not-exist (a schema-less store never wrote them).
func removeColumnFiles(dir string, id uint64) {
	os.Remove(filepath.Join(dir, colFileName(id)))
	os.Remove(filepath.Join(dir, colDirFileName(id)))
}

// genColFeeder streams the concatenated columns of a run of victim
// generations into a compaction merge, translating each victim's local
// present positions by the run offset. Victims frozen before the schema
// (nil cols) contribute all-NULL stretches.
type genColFeeder struct {
	gens []*generation
}

func (f genColFeeder) feedColumn(col int, fn func(pos int, v Value) bool) {
	base := 0
	for _, g := range f.gens {
		if g.cols != nil {
			c := &g.cols.cols[col]
			pos := -1
			for i := 0; i < c.m; i++ {
				pos++ // the next position, present itself when the vector is elided
				if c.presence != nil {
					pos = c.presence.NextOne(pos)
				}
				if !fn(base+pos, g.cols.presentValue(col, i)) {
					return
				}
			}
		}
		base += g.ix.Len()
	}
}
