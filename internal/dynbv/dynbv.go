// Package dynbv implements the fully-dynamic compressed bitvector of paper
// §4.2 (Theorem 4.9): Access, Rank, Select, Insert, Delete and Init in
// O(log n) time with O(nH₀(β) + log n) bits of space.
//
// Following the paper, the bitvector is run-length encoded — the bitvector
// 0^r0 1^r1 0^r2 … is represented by its runs — and the runs are kept in a
// balanced search tree with partial counts (number of bits and of ones) in
// every node, the structure of Mäkinen-Navarro [18] §3.4 with RLE+γ in
// place of gaps+δ so that Init(b, n) is a single O(log n)-time leaf write
// regardless of n (Remark 4.2).
//
// The tree here is a counted B+-tree: leaves hold bounded arrays of runs,
// internal nodes hold child pointers plus aggregated (bits, ones) totals.
// Leaves keep runs word-decoded for speed; EncodedSizeBits reports the
// exact Elias-γ RLE size the paper's space bound is stated in, and
// EncodeRLE/DecodeRLE produce and parse the actual γ stream (see DESIGN.md
// substitution table).
package dynbv

import "fmt"

const (
	maxLeafRuns = 64
	minLeafRuns = maxLeafRuns / 4
	maxKids     = 16
	minKids     = maxKids / 4
)

// run is a maximal block of equal bits within a leaf.
type run struct {
	bit byte
	n   int
}

// node is either a leaf (kids == nil, runs used) or an internal node
// (kids used). bits/ones are subtree totals.
type node struct {
	runs []run
	kids []*node
	bits int
	ones int
}

func (nd *node) isLeaf() bool { return nd.kids == nil }

// recount recomputes the subtree totals from children or runs.
func (nd *node) recount() {
	nd.bits, nd.ones = 0, 0
	if nd.isLeaf() {
		for _, r := range nd.runs {
			nd.bits += r.n
			if r.bit == 1 {
				nd.ones += r.n
			}
		}
		return
	}
	for _, k := range nd.kids {
		nd.bits += k.bits
		nd.ones += k.ones
	}
}

// Vector is a fully-dynamic bitvector. The zero value is not usable; call
// New or NewInit. Not safe for concurrent mutation.
type Vector struct {
	root *node
}

// New returns an empty dynamic bitvector.
func New() *Vector {
	return &Vector{root: &node{runs: []run{}}}
}

// NewInit returns a bitvector holding n copies of bit b — the Init(b, n)
// operation of §4, O(log n) time and O(1) runs regardless of n.
func NewInit(b byte, n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("dynbv: NewInit: negative length %d", n))
	}
	v := New()
	if n > 0 {
		v.root.runs = append(v.root.runs, run{bit: b & 1, n: n})
		v.root.recount()
	}
	return v
}

// Len returns the number of bits.
func (v *Vector) Len() int { return v.root.bits }

// Ones returns the number of 1 bits.
func (v *Vector) Ones() int { return v.root.ones }

// Zeros returns the number of 0 bits.
func (v *Vector) Zeros() int { return v.root.bits - v.root.ones }

// Access returns bit pos.
func (v *Vector) Access(pos int) byte {
	if pos < 0 || pos >= v.Len() {
		panic(fmt.Sprintf("dynbv: Access(%d) out of range [0,%d)", pos, v.Len()))
	}
	nd := v.root
	for !nd.isLeaf() {
		for _, k := range nd.kids {
			if pos < k.bits {
				nd = k
				break
			}
			pos -= k.bits
		}
	}
	for _, r := range nd.runs {
		if pos < r.n {
			return r.bit
		}
		pos -= r.n
	}
	panic("dynbv: Access: tree counts inconsistent")
}

// Rank1 returns the number of 1 bits in [0, pos). pos may equal Len().
func (v *Vector) Rank1(pos int) int {
	if pos < 0 || pos > v.Len() {
		panic(fmt.Sprintf("dynbv: Rank1(%d) out of range [0,%d]", pos, v.Len()))
	}
	nd := v.root
	rank := 0
	for !nd.isLeaf() {
		for _, k := range nd.kids {
			if pos <= k.bits {
				nd = k
				goto next
			}
			pos -= k.bits
			rank += k.ones
		}
		panic("dynbv: Rank1: tree counts inconsistent")
	next:
	}
	for _, r := range nd.runs {
		if pos <= r.n {
			if r.bit == 1 {
				rank += pos
			}
			return rank
		}
		pos -= r.n
		if r.bit == 1 {
			rank += r.n
		}
	}
	return rank
}

// Rank0 returns the number of 0 bits in [0, pos).
func (v *Vector) Rank0(pos int) int { return pos - v.Rank1(pos) }

// Rank returns the number of occurrences of bit b in [0, pos).
func (v *Vector) Rank(b byte, pos int) int {
	if b == 0 {
		return v.Rank0(pos)
	}
	return v.Rank1(pos)
}

// Select1 returns the position of the idx-th (0-based) 1 bit.
func (v *Vector) Select1(idx int) int {
	if idx < 0 || idx >= v.Ones() {
		panic(fmt.Sprintf("dynbv: Select1(%d) out of range [0,%d)", idx, v.Ones()))
	}
	return v.selectBit(1, idx)
}

// Select0 returns the position of the idx-th (0-based) 0 bit.
func (v *Vector) Select0(idx int) int {
	if idx < 0 || idx >= v.Zeros() {
		panic(fmt.Sprintf("dynbv: Select0(%d) out of range [0,%d)", idx, v.Zeros()))
	}
	return v.selectBit(0, idx)
}

// Select returns the position of the idx-th occurrence of bit b.
func (v *Vector) Select(b byte, idx int) int {
	if b == 0 {
		return v.Select0(idx)
	}
	return v.Select1(idx)
}

func (v *Vector) selectBit(b byte, idx int) int {
	nd := v.root
	pos := 0
	count := func(k *node) int {
		if b == 1 {
			return k.ones
		}
		return k.bits - k.ones
	}
	for !nd.isLeaf() {
		for _, k := range nd.kids {
			c := count(k)
			if idx < c {
				nd = k
				goto next
			}
			idx -= c
			pos += k.bits
		}
		panic("dynbv: Select: tree counts inconsistent")
	next:
	}
	for _, r := range nd.runs {
		if r.bit == b {
			if idx < r.n {
				return pos + idx
			}
			idx -= r.n
		}
		pos += r.n
	}
	panic("dynbv: Select: tree counts inconsistent")
}

// Insert inserts bit before position pos (0 ≤ pos ≤ Len()) in O(log n).
func (v *Vector) Insert(pos int, bit byte) {
	if pos < 0 || pos > v.Len() {
		panic(fmt.Sprintf("dynbv: Insert(%d) out of range [0,%d]", pos, v.Len()))
	}
	right := v.root.insert(pos, bit&1)
	if right != nil {
		v.root = &node{kids: []*node{v.root, right}}
		v.root.recount()
	}
}

// AppendRun appends cnt copies of bit in O(log n) total (it extends or
// adds a single run).
func (v *Vector) AppendRun(bit byte, cnt int) {
	if cnt < 0 {
		panic("dynbv: AppendRun: negative count")
	}
	if cnt == 0 {
		return
	}
	right := v.root.appendRun(bit&1, cnt)
	if right != nil {
		v.root = &node{kids: []*node{v.root, right}}
		v.root.recount()
	}
}

// Delete removes the bit at position pos in O(log n) and returns it.
func (v *Vector) Delete(pos int) byte {
	if pos < 0 || pos >= v.Len() {
		panic(fmt.Sprintf("dynbv: Delete(%d) out of range [0,%d)", pos, v.Len()))
	}
	b := v.root.delete(pos)
	// Collapse a single-child root so height tracks the run count.
	for !v.root.isLeaf() && len(v.root.kids) == 1 {
		v.root = v.root.kids[0]
	}
	return b
}

// insert performs the recursive insertion and returns a new right sibling
// if the node split.
func (nd *node) insert(pos int, bit byte) *node {
	nd.bits++
	if bit == 1 {
		nd.ones++
	}
	if nd.isLeaf() {
		nd.leafInsert(pos, bit)
		return nd.maybeSplitLeaf()
	}
	for i, k := range nd.kids {
		if pos <= k.bits {
			if right := k.insert(pos, bit); right != nil {
				nd.kids = append(nd.kids, nil)
				copy(nd.kids[i+2:], nd.kids[i+1:])
				nd.kids[i+1] = right
			}
			return nd.maybeSplitInternal()
		}
		pos -= k.bits
	}
	panic("dynbv: insert: position beyond subtree")
}

// leafInsert splices one bit into the run array at relative position pos.
func (nd *node) leafInsert(pos int, bit byte) {
	for i := range nd.runs {
		r := &nd.runs[i]
		if pos > r.n {
			pos -= r.n
			continue
		}
		if r.bit == bit {
			r.n++
			return
		}
		switch pos {
		case 0:
			if i > 0 && nd.runs[i-1].bit == bit {
				nd.runs[i-1].n++
				return
			}
			nd.insertRunAt(i, run{bit, 1})
			return
		case r.n:
			// End of run i: try the next run, else splice between.
			if i+1 < len(nd.runs) && nd.runs[i+1].bit == bit {
				nd.runs[i+1].n++
				return
			}
			nd.insertRunAt(i+1, run{bit, 1})
			return
		default:
			// Split run i around the new bit.
			tail := run{r.bit, r.n - pos}
			r.n = pos
			nd.insertRunAt(i+1, run{bit, 1})
			nd.insertRunAt(i+2, tail)
			return
		}
	}
	// Empty leaf or append at very end.
	if pos != 0 && len(nd.runs) > 0 {
		panic("dynbv: leafInsert: position beyond leaf")
	}
	nd.runs = append(nd.runs, run{bit, 1})
}

// appendRun extends the rightmost leaf with a run of cnt copies of bit and
// returns a new right sibling if a split cascades.
func (nd *node) appendRun(bit byte, cnt int) *node {
	nd.bits += cnt
	if bit == 1 {
		nd.ones += cnt
	}
	if nd.isLeaf() {
		if k := len(nd.runs); k > 0 && nd.runs[k-1].bit == bit {
			nd.runs[k-1].n += cnt
		} else {
			nd.runs = append(nd.runs, run{bit, cnt})
		}
		return nd.maybeSplitLeaf()
	}
	last := len(nd.kids) - 1
	if right := nd.kids[last].appendRun(bit, cnt); right != nil {
		nd.kids = append(nd.kids, right)
	}
	return nd.maybeSplitInternal()
}

func (nd *node) insertRunAt(i int, r run) {
	nd.runs = append(nd.runs, run{})
	copy(nd.runs[i+1:], nd.runs[i:])
	nd.runs[i] = r
}

func (nd *node) maybeSplitLeaf() *node {
	if len(nd.runs) <= maxLeafRuns {
		return nil
	}
	mid := len(nd.runs) / 2
	right := &node{runs: append([]run(nil), nd.runs[mid:]...)}
	nd.runs = nd.runs[:mid]
	nd.recount()
	right.recount()
	return right
}

func (nd *node) maybeSplitInternal() *node {
	if len(nd.kids) <= maxKids {
		return nil
	}
	mid := len(nd.kids) / 2
	right := &node{kids: append([]*node(nil), nd.kids[mid:]...)}
	nd.kids = nd.kids[:mid]
	nd.recount()
	right.recount()
	return right
}

// delete removes the bit at relative position pos and returns it.
func (nd *node) delete(pos int) byte {
	if nd.isLeaf() {
		b := nd.leafDelete(pos)
		nd.bits--
		if b == 1 {
			nd.ones--
		}
		return b
	}
	for i, k := range nd.kids {
		if pos < k.bits {
			b := k.delete(pos)
			nd.bits--
			if b == 1 {
				nd.ones--
			}
			nd.fixChild(i)
			return b
		}
		pos -= k.bits
	}
	panic("dynbv: delete: position beyond subtree")
}

// leafDelete removes one bit from the run array.
func (nd *node) leafDelete(pos int) byte {
	for i := range nd.runs {
		r := &nd.runs[i]
		if pos >= r.n {
			pos -= r.n
			continue
		}
		b := r.bit
		r.n--
		if r.n == 0 {
			// Remove the run; merge the newly adjacent neighbours if equal.
			nd.runs = append(nd.runs[:i], nd.runs[i+1:]...)
			if i > 0 && i < len(nd.runs) && nd.runs[i-1].bit == nd.runs[i].bit {
				nd.runs[i-1].n += nd.runs[i].n
				nd.runs = append(nd.runs[:i], nd.runs[i+1:]...)
			}
		}
		return b
	}
	panic("dynbv: leafDelete: position beyond leaf")
}

// fixChild restores the occupancy invariant of kids[i] after a deletion,
// borrowing from or merging with an adjacent sibling.
func (nd *node) fixChild(i int) {
	k := nd.kids[i]
	if k.isLeaf() {
		if len(k.runs) >= minLeafRuns || len(nd.kids) == 1 {
			return
		}
	} else {
		if len(k.kids) >= minKids || len(nd.kids) == 1 {
			return
		}
	}
	j := i - 1 // sibling index; prefer left
	if i == 0 {
		j = 1
	}
	left, right := i, j
	if j < i {
		left, right = j, i
	}
	l, r := nd.kids[left], nd.kids[right]
	if l.isLeaf() {
		if len(l.runs)+len(r.runs) <= maxLeafRuns {
			// Merge r into l, fusing the boundary runs if they match.
			if len(l.runs) > 0 && len(r.runs) > 0 && l.runs[len(l.runs)-1].bit == r.runs[0].bit {
				l.runs[len(l.runs)-1].n += r.runs[0].n
				r.runs = r.runs[1:]
			}
			l.runs = append(l.runs, r.runs...)
			l.recount()
			nd.kids = append(nd.kids[:right], nd.kids[right+1:]...)
			return
		}
		// Borrow one run toward the poorer side.
		if len(l.runs) < len(r.runs) {
			moved := r.runs[0]
			r.runs = r.runs[1:]
			if len(l.runs) > 0 && l.runs[len(l.runs)-1].bit == moved.bit {
				l.runs[len(l.runs)-1].n += moved.n
			} else {
				l.runs = append(l.runs, moved)
			}
		} else {
			moved := l.runs[len(l.runs)-1]
			l.runs = l.runs[:len(l.runs)-1]
			if len(r.runs) > 0 && r.runs[0].bit == moved.bit {
				r.runs[0].n += moved.n
			} else {
				r.runs = append([]run{moved}, r.runs...)
			}
		}
		l.recount()
		r.recount()
		return
	}
	// Internal children.
	if len(l.kids)+len(r.kids) <= maxKids {
		l.kids = append(l.kids, r.kids...)
		l.recount()
		nd.kids = append(nd.kids[:right], nd.kids[right+1:]...)
		return
	}
	if len(l.kids) < len(r.kids) {
		moved := r.kids[0]
		r.kids = r.kids[1:]
		l.kids = append(l.kids, moved)
	} else {
		moved := l.kids[len(l.kids)-1]
		l.kids = l.kids[:len(l.kids)-1]
		r.kids = append([]*node{moved}, r.kids...)
	}
	l.recount()
	r.recount()
}
