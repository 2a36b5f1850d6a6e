// Package model is the one reference the store and server tests check
// answers against: an indexed sequence of strings (paper §1) held as the
// flat scan oracle, each position's payload row beside it, and the
// sequence number the last append was acknowledged with. Check compares
// any reader of the sequence — a store snapshot, a store, a client of a
// server or of its follower — against it over the whole answer surface:
// the five primitives and their count forms, pages of prefix and
// predicate matches, predicate counts, rows, positional windows and the
// content fingerprint. A seeded command generator and a runner (run.go)
// drive a system and the model through the same commands, state-machine
// style, and shrink a failing command list before printing it.
//
// The package imports neither store nor server: each of them adapts its
// readers to Reader in one test file of its own.
package model

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/seqstore"
	"repro/internal/seqstore/flat"
)

// Kind is a column's or a cell's kind, numbered as the store numbers
// them; a cell of kind 0 is NULL.
type Kind uint8

// The column kinds.
const (
	KindU64   Kind = 1
	KindBytes Kind = 2
)

// Cell is one payload cell: NULL (the zero value), a number or a blob.
type Cell struct {
	Kind Kind
	Num  uint64
	Blob string
}

// Row is one position's payload row, a cell a schema column; nil reads as
// all NULL.
type Row []Cell

// Pred is a numeric predicate, Op numbered as the store's (1 == … 6 >=).
// A NULL cell matches none.
type Pred struct {
	Col int
	Op  uint8
	Val uint64
}

func (p Pred) match(c Cell) bool {
	if c.Kind != KindU64 {
		return false
	}
	switch p.Op {
	case 1:
		return c.Num == p.Val
	case 2:
		return c.Num != p.Val
	case 3:
		return c.Num < p.Val
	case 4:
		return c.Num <= p.Val
	case 5:
		return c.Num > p.Val
	}
	return c.Num >= p.Val
}

// Match is one item of a page: its match index, position, value and —
// on a predicate page — row.
type Match struct {
	Idx, Pos int
	Val      string
	Row      Row
}

// Reader is the answer surface Check reads. A method a reader does not
// serve returns errors.ErrUnsupported, and Check skips that family.
type Reader interface {
	Len() (int, error)
	Access(pos int) (string, error)
	Rank(v string, pos int) (int, error)
	Count(v string) (int, error)
	Select(v string, idx int) (int, bool, error)
	RankPrefix(p string, pos int) (int, error)
	CountPrefix(p string) (int, error)
	SelectPrefix(p string, idx int) (int, bool, error)
	Distinct() (int, error)
	// Page reads at most max matches of prefix p from match from on, its
	// consumer stopping after stop of them, and whether a match lies past
	// the last one read. preds == nil is a prefix page without rows; a
	// non-nil preds, even an empty one, a predicate page with them.
	Page(p string, preds []Pred, from, max, stop int) ([]Match, bool, error)
	// Positions is the positions-only scan of the same matches, stopped
	// after stop of them.
	Positions(p string, preds []Pred, from, stop int) ([]int, error)
	CountWhere(p string, preds []Pred) (int, error)
	Row(pos int) (Row, error)
	Slice(l, r int) ([]string, error)
	Fingerprint() (uint64, error)
}

// Model is the expected state of a system.
type Model struct {
	seq    *flat.Store
	rows   []Row
	schema []Kind
	marks  []int // lengths at which a flush cut a generation
	acked  uint64
	extra  [][]Pred
}

// New returns an empty model over a schema of the given column kinds.
func New(schema ...Kind) *Model { return &Model{seq: flat.New(), schema: schema} }

// FromSlice returns a model holding vals and rows (rows may be nil).
func FromSlice(vals []string, rows []Row, schema ...Kind) *Model {
	m := New(schema...)
	m.Append(vals, rows)
	return m
}

// Len returns the sequence length.
func (m *Model) Len() int { return m.seq.Len() }

// Append appends vals, with rows[i] the row of vals[i] (rows may be nil,
// and so may any row).
func (m *Model) Append(vals []string, rows []Row) {
	for i, v := range vals {
		m.seq.Append(v)
		var row Row
		if len(m.schema) > 0 {
			row = make(Row, len(m.schema))
			if i < len(rows) {
				copy(row, rows[i])
			}
		}
		m.rows = append(m.rows, row)
	}
}

// Mark records a generation boundary at the current length: Check reads
// windows and seeks around it.
func (m *Model) Mark() { m.marks = append(m.marks, m.Len()) }

// Ack records the sequence number an append was acknowledged with: it
// must count every value appended so far.
func (m *Model) Ack(seq uint64) error {
	if seq != uint64(m.Len()) {
		return fmt.Errorf("append acknowledged as seq %d, want %d", seq, m.Len())
	}
	m.acked = seq
	return nil
}

// Acked returns the last acknowledged sequence number.
func (m *Model) Acked() uint64 { return m.acked }

// Prefix returns the model of the first n positions.
func (m *Model) Prefix(n int) *Model {
	p := New(m.schema...)
	for i := 0; i < n; i++ {
		p.seq.Append(m.seq.Access(i))
	}
	p.rows = m.rows[:n:n]
	for _, b := range m.marks {
		if b < n {
			p.marks = append(p.marks, b)
		}
	}
	return p
}

// Filter adds predicate sets Check counts the matches of under the empty
// prefix and the last probed one in byte order, and lists the first
// positions of, beside its own.
func (m *Model) Filter(sets ...[]Pred) *Model {
	m.extra = append(m.extra, sets...)
	return m
}

// Check fails t unless r answers as m does.
func (m *Model) Check(t testing.TB, r Reader) {
	t.Helper()
	if err := m.Diff(r); err != nil {
		t.Fatal(err)
	}
}

// Diff returns the first answer of r that differs from m's, or nil.
func (m *Model) Diff(r Reader) error {
	n := m.Len()
	if g, err := r.Len(); err != nil || g != n {
		return fmt.Errorf("Len = %d, %v; want %d", g, err, n)
	}
	bounds := m.bounds()
	if err := m.diffPositions(r, bounds); err != nil {
		return err
	}
	seeks := slices.DeleteFunc(slices.Clone(bounds), func(b int) bool { return b%4096 != 0 && !slices.Contains(m.marks, b) })
	for _, v := range m.values() {
		if err := m.diffKey(r, v, false); err != nil {
			return err
		}
	}
	for _, p := range m.prefixes() {
		if err := m.diffKey(r, p, true); err != nil {
			return err
		}
		if err := m.diffPages(r, p, nil, seeks); err != nil {
			return err
		}
	}
	if g, err := r.Distinct(); !unsupported(err) {
		if w := len(m.seq.DistinctInRange(0, n)); err != nil || g != w {
			return fmt.Errorf("Distinct = %d, %v; want %d", g, err, w)
		}
	}
	for k, preds := range m.predSets() {
		for i, p := range m.prefixes() {
			want := len(m.matches(p, preds))
			g, err := r.CountWhere(p, preds)
			if unsupported(err) {
				break
			} else if err != nil || g != want {
				return fmt.Errorf("CountWhere(%q, %v) = %d, %v; want %d", p, preds, g, err, want)
			}
			if k == 0 && i == 0 {
				err = m.diffPages(r, p, preds, seeks) // a predicate page without predicates: rows
			} else if i < 2 && k > 0 {
				err = m.diffPages(r, p, preds, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	prefixes := m.prefixes()
	for _, preds := range m.extra {
		for _, p := range []string{"", prefixes[len(prefixes)-1]} {
			w := len(m.matches(p, preds))
			if g, err := r.CountWhere(p, preds); err != nil || g != w {
				return fmt.Errorf("CountWhere(%q, %v) = %d, %v; want %d", p, preds, g, err, w)
			}
		}
		w := m.matches("", preds)
		if g, err := r.Positions("", preds, 0, 8); !unsupported(err) && (err != nil || !slices.Equal(g, w[:min(8, len(w))])) {
			return fmt.Errorf("positions of %v = %v, %v; want %v", preds, g, err, w[:min(8, len(w))])
		}
	}
	if g, err := r.Fingerprint(); !unsupported(err) {
		if w := m.fingerprint(); err != nil || g != w {
			return fmt.Errorf("ContentFingerprint = %x, %v; want %x", g, err, w)
		}
	}
	return nil
}

func unsupported(err error) bool { return errors.Is(err, errors.ErrUnsupported) }

// bounds returns the positions where a reader's structure has seams: the
// generation marks and every 256th (a memtable chunk) and 4 096th
// position (a router chunk), and the two ends.
func (m *Model) bounds() []int {
	n := m.Len()
	out := append([]int{0, n}, m.marks...)
	for b := 256; b < n; b += 256 {
		out = append(out, b)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// diffPositions reads Access and Row on a sample of positions and those
// either side of every seam, and Slice over the whole view, long windows
// and a window across each seam.
func (m *Model) diffPositions(r Reader, bounds []int) error {
	n := m.Len()
	var at []int
	for pos := 0; pos < n; pos += 1 + n/200 {
		at = append(at, pos)
	}
	for _, b := range bounds {
		at = append(at, b-1, b)
	}
	rowsServed := true
	for _, pos := range at {
		if pos < 0 || pos >= n {
			continue
		}
		if g, err := r.Access(pos); err != nil || g != m.seq.Access(pos) {
			return fmt.Errorf("Access(%d) = %q, %v; want %q", pos, g, err, m.seq.Access(pos))
		}
		if !rowsServed {
			continue
		}
		g, err := r.Row(pos)
		if rowsServed = !unsupported(err); rowsServed && (err != nil || !rowEqual(g, m.rows[pos])) {
			return fmt.Errorf("Row(%d) = %v, %v; want %v", pos, g, err, m.rows[pos])
		}
	}
	// The whole view, one from just before a 64-position word boundary
	// across the first router seam, windows from the boundary and just
	// after it, and a window across each seam.
	windows := [][2]int{{0, n}, {63, 4200}, {64, 128}, {65, 130}}
	for _, b := range bounds {
		windows = append(windows, [2]int{b - 3, b + 3})
	}
	for _, w := range windows {
		l, h := max(0, min(n, w[0])), min(n, w[1])
		if h < l {
			continue
		}
		g, err := r.Slice(l, h)
		if unsupported(err) {
			break
		}
		if err != nil || len(g) != h-l {
			return fmt.Errorf("Slice(%d, %d) = %d values, %v; want %d", l, h, len(g), err, h-l)
		}
		for i, v := range g {
			if w := m.seq.Access(l + i); v != w {
				return fmt.Errorf("Slice(%d, %d)[%d] = %q, want %q", l, h, i, v, w)
			}
		}
	}
	return nil
}

// values returns the values Check probes: a sample of the sequence's and
// an absent one.
func (m *Model) values() []string {
	n := m.Len()
	set := []string{"absent/value"}
	for _, pos := range []int{0, n / 3, n / 2, n - 1} {
		if pos >= 0 && pos < n {
			set = append(set, m.seq.Access(pos))
		}
	}
	return set
}

// prefixes returns the prefixes Check probes: the empty one, an absent
// one, each probed value's part up to its first '/', and one whole probed
// value and one's first half.
func (m *Model) prefixes() []string {
	set := []string{"", "absent/"}
	for i, v := range m.values()[1:] {
		if j := strings.IndexByte(v, '/'); j > 0 {
			set = append(set, v[:j+1])
		}
		if i == 1 {
			set = append(set, v, v[:len(v)/2])
		}
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// predSets returns the predicate sets Check filters by: none, and on the
// first numeric column one bound, a negated one, and a range of two.
func (m *Model) predSets() [][]Pred {
	col := slices.Index(m.schema, KindU64)
	if col < 0 {
		return [][]Pred{{}}
	}
	var nums []uint64
	for _, row := range m.rows {
		if row[col].Kind == KindU64 {
			nums = append(nums, row[col].Num)
		}
	}
	mid := uint64(0)
	if len(nums) > 0 {
		slices.Sort(nums)
		mid = nums[len(nums)/2]
	}
	return [][]Pred{
		{},
		{{Col: col, Op: 6, Val: mid}},
		{{Col: col, Op: 2, Val: mid}},
		{{Col: col, Op: 5, Val: mid / 2}, {Col: col, Op: 4, Val: mid}},
	}
}

// matches returns the positions matching prefix p and preds.
func (m *Model) matches(p string, preds []Pred) []int {
	var out []int
	for pos := 0; pos < m.Len(); pos++ {
		if !strings.HasPrefix(m.seq.Access(pos), p) {
			continue
		}
		ok := true
		for _, pr := range preds {
			ok = ok && pr.match(m.rows[pos][pr.Col])
		}
		if ok {
			out = append(out, pos)
		}
	}
	return out
}

// diffKey compares one value's (or prefix's) counts, ranks and selects.
func (m *Model) diffKey(r Reader, v string, prefix bool) error {
	n := m.Len()
	name, rank, count, sel := "", r.Rank, r.Count, r.Select
	wantRank, wantSel := m.seq.Rank, m.seq.Select
	if prefix {
		name, rank, count, sel = "Prefix", r.RankPrefix, r.CountPrefix, r.SelectPrefix
		wantRank, wantSel = m.seq.RankPrefix, m.seq.SelectPrefix
	}
	total := wantRank(v, n)
	if g, err := count(v); err != nil || g != total {
		return fmt.Errorf("Count%s(%q) = %d, %v; want %d", name, v, g, err, total)
	}
	for _, pos := range []int{0, 1, n / 3, n / 2, n - 1, n} {
		if pos < 0 || pos > n {
			continue
		}
		if g, err := rank(v, pos); err != nil || g != wantRank(v, pos) {
			return fmt.Errorf("Rank%s(%q, %d) = %d, %v; want %d", name, v, pos, g, err, wantRank(v, pos))
		}
	}
	for _, idx := range []int{-1, 0, 1, total / 2, total - 1, total, total + 1} {
		g, ok, err := sel(v, idx)
		w, wok := wantSel(v, idx)
		if err != nil || ok != wok || (ok && g != w) {
			return fmt.Errorf("Select%s(%q, %d) = %d, %v, %v; want %d, %v", name, v, idx, g, ok, err, w, wok)
		}
	}
	return nil
}

// diffPages reads pages of p's matches under preds: of 7 from the first
// match, the middle, the seventh from last, the last, the count and one
// past it; of 64 whose consumer stops after one from the first and the
// middle; of 1 and 64 from the first; of 64 from 64 before the first
// match past each of seams, and of 1 and 16 from 2 before it to 2
// after. On prefix pages it also reads one of 16 from every match of a
// stream of at most 70, and the whole stream in one page — except for
// the empty prefix, whose whole stream is diffPositions' Slice of the
// view: from its middle, a page of 70 whose consumer stops after each
// of 1 … 16 matches and either side of 32 and 64. The positions-only
// scan reads 5 from the first six of those froms and either side of
// each seam's first match.
func (m *Model) diffPages(r Reader, p string, preds []Pred, seams []int) error {
	want := m.matches(p, preds)
	total := len(want)
	scans := []int{0, total / 2, total - 7, total - 1, total, total + 1}
	at := map[int][][2]int{0: {{1, 1}, {64, 64}, {64, 1}}}
	at[total/2] = append(at[total/2], [2]int{64, 1})
	for _, from := range scans {
		at[from] = append(at[from], [2]int{7, 7})
	}
	for _, b := range seams {
		i, _ := slices.BinarySearch(want, b)
		scans = append(scans, i-1, i)
		at[i-64] = append(at[i-64], [2]int{64, 64})
		for _, from := range []int{i - 2, i - 1, i, i + 1, i + 2} {
			at[from] = append(at[from], [2]int{1, 1}, [2]int{16, 16})
		}
	}
	if preds == nil && p != "" {
		at[0] = append(at[0], [2]int{total + 1, total + 1})
	}
	if preds == nil && total <= 70 {
		for from := 0; from < total; from++ {
			at[from] = append(at[from], [2]int{16, 16})
		}
	}
	if preds == nil && p == "" {
		for _, stop := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 31, 32, 33, 63, 64, 65, 70} {
			at[total/2] = append(at[total/2], [2]int{70, stop})
		}
	}
	var froms []int
	for from := range at {
		froms = append(froms, from)
	}
	slices.Sort(froms)
	for _, from := range froms {
		if from < 0 {
			continue
		}
		sizes := at[from]
		slices.SortFunc(sizes, func(a, b [2]int) int { return (a[0]-b[0])<<32 + a[1] - b[1] })
		for _, size := range slices.Compact(sizes) {
			got, more, err := r.Page(p, preds, from, size[0], size[1])
			if unsupported(err) {
				break
			}
			end := min(total, from+min(size[0], size[1]))
			wantMore := max(from, end) < total
			if err == nil && len(got) == max(0, end-from) && more == wantMore {
				for i, g := range got {
					pos := want[from+i]
					if g.Idx != from+i || g.Pos != pos || g.Val != m.seq.Access(pos) || (preds != nil && !rowEqual(g.Row, m.rows[pos])) {
						err = fmt.Errorf("match %d is %+v", from+i, g)
						break
					}
				}
				if err == nil {
					continue
				}
			}
			return fmt.Errorf("page of %d (stopped after %d) of %q, %v from match %d: %d matches, more %v, %v; want %d, more %v",
				size[0], size[1], p, preds, from, len(got), more, err, max(0, end-from), wantMore)
		}
		if !slices.Contains(scans, from) {
			continue
		}
		got, err := r.Positions(p, preds, from, 5)
		if w := want[min(from, total):min(from+5, total)]; !unsupported(err) && (err != nil || !slices.Equal(got, w)) {
			return fmt.Errorf("positions of %q, %v from match %d = %v, %v; want %v", p, preds, from, got, err, w)
		}
	}
	return nil
}

func rowEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || (a[i].Kind == KindU64 && a[i].Num != b[i].Num) || (a[i].Kind == KindBytes && a[i].Blob != b[i].Blob) {
			return false
		}
	}
	return true
}

// fingerprint is the content fingerprint a store computes: 64-bit FNV-1a
// over every value, length first, and every cell, kind tag first.
func (m *Model) fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	bytes := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
	}
	for pos := 0; pos < m.Len(); pos++ {
		bytes(m.seq.Access(pos))
		for _, c := range m.rows[pos] {
			mix(uint64(c.Kind))
			switch c.Kind {
			case KindU64:
				mix(c.Num)
			case KindBytes:
				bytes(c.Blob)
			}
		}
	}
	return h
}

// Seq reads an in-process index — a trie, an export of a store, or a
// store itself — as a Reader: its primitives and their count forms; the
// rest is unsupported.
func Seq(s seqstore.Sequence) Reader { return seqReader{s} }

type seqReader struct{ s seqstore.Sequence }

var errNo = fmt.Errorf("model: %w", errors.ErrUnsupported)

func (q seqReader) Len() (int, error)                         { return q.s.Len(), nil }
func (q seqReader) Access(pos int) (string, error)            { return q.s.Access(pos), nil }
func (q seqReader) Rank(v string, pos int) (int, error)       { return q.s.Rank(v, pos), nil }
func (q seqReader) Count(v string) (int, error)               { return q.s.Rank(v, q.s.Len()), nil }
func (q seqReader) RankPrefix(p string, pos int) (int, error) { return q.s.RankPrefix(p, pos), nil }
func (q seqReader) CountPrefix(p string) (int, error)         { return q.s.RankPrefix(p, q.s.Len()), nil }
func (q seqReader) Select(v string, idx int) (int, bool, error) {
	pos, ok := q.s.Select(v, idx)
	return pos, ok, nil
}
func (q seqReader) SelectPrefix(p string, idx int) (int, bool, error) {
	pos, ok := q.s.SelectPrefix(p, idx)
	return pos, ok, nil
}
func (seqReader) Distinct() (int, error) { return 0, errNo }
func (seqReader) Page(string, []Pred, int, int, int) ([]Match, bool, error) {
	return nil, false, errNo
}
func (seqReader) Positions(string, []Pred, int, int) ([]int, error) { return nil, errNo }
func (seqReader) CountWhere(string, []Pred) (int, error)            { return 0, errNo }
func (seqReader) Row(int) (Row, error)                              { return nil, errNo }
func (seqReader) Slice(int, int) ([]string, error)                  { return nil, errNo }
func (seqReader) Fingerprint() (uint64, error)                      { return 0, errNo }
