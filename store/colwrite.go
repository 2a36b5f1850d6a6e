package store

import (
	"math/bits"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/wavelettree"
)

// Column freeze path: at flush the sealed memtable's row arrays — and
// at compaction the victim generations' frozen columns — stream through
// a colFeeder into buildFrozenCols, which lays out each column's
// presence plus its numeric wavelet matrix (over the values or over their
// ranks in a dictionary, whichever is smaller) or blob payload, and
// writeGenerationFrom persists the images as sections of the
// generation's file. Like the streaming value freeze, no per-row
// materialization happens: the builder sees one (position, cell) pair at
// a time.

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
		width := bits.Len64(top)
		if c.dict = buildDict(vals, width); c.dict != nil {
			for i, v := range vals {
				rank, _ := slices.BinarySearch(c.dict, v)
				vals[i] = uint64(rank)
			}
			width = bits.Len(uint(len(c.dict) - 1))
		}
		c.num = wavelettree.NewMatrix(vals, width)
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

// genColFeeder streams the concatenated columns of a run of victim
// generations into a compaction merge, translating each victim's local
// present positions by the run offset. A numeric column is decoded whole,
// plane by plane (Matrix.AppendValues), before its cells stream out; a
// blob column's cells alias its payload. Victims frozen before the schema
// (nil cols) contribute all-NULL stretches.
type genColFeeder struct {
	gens []*generation
}

func (f genColFeeder) feedColumn(col int, fn func(pos int, v Value) bool) {
	base := 0
	var nums []uint64 // a numeric column's present values, decoded
	for _, g := range f.gens {
		if g.cols != nil {
			c := &g.cols.cols[col]
			if c.kind == ColUint64 {
				nums = c.num.AppendValues(nums[:0], 0, c.m)
				if c.dict != nil {
					for i, r := range nums {
						nums[i] = c.dict[r] // parseColumn checked every rank against the table
					}
				}
			}
			pos := -1
			for i := 0; i < c.m; i++ {
				pos++ // the next position, present itself when the vector is elided
				if c.presence != nil {
					pos = c.presence.NextOne(pos)
				}
				var v Value
				if c.kind == ColUint64 {
					v = Value{kind: ColUint64, num: nums[i]}
				} else {
					v = g.cols.presentValue(col, i)
				}
				if !fn(base+pos, v) {
					return
				}
			}
		}
		base += g.ix.Len()
	}
}
