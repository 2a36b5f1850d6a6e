package store

import (
	"bytes"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/wire"
)

// The column subsystem attaches a position-aligned payload row to every
// element of the sequence (DESIGN.md §13): a fixed schema of named,
// typed columns is pinned in the manifest at creation, each append may
// carry one value per column (or NULL), and flush/compaction persist the
// rows beside each generation as two immutable files —
//
//	gen-<id>.col  presence bitvectors + bit-plane wavelet trees over the
//	              present values of every fixed-width numeric column — or
//	              over their ranks in the generation's sorted dictionary,
//	              whichever of the two is smaller
//	gen-<id>.cd   the offset directory: per blob column, the offsets and
//	              concatenated bytes of its present values
//
// The numeric encoding is a pointerless, level-wise wavelet tree over
// the values' bit planes (MSB first), so a range predicate col∈[lo,hi]
// is answered by rank arithmetic alone — CountWhere never touches the
// values themselves. §6's hashed Numeric trie is NOT usable here:
// hashing the keys destroys their order, and order is exactly what a
// range filter needs (see DESIGN.md §13 for the substitution rationale).
//
// NULL semantics: a NULL matches no predicate, not even !=. Predicates
// therefore count present values only, via the presence bitvector.

// ColumnKind is the type of a column's values.
type ColumnKind uint8

// Column kinds: fixed-width unsigned integers (range-filterable) and
// variable-width byte blobs (point access only).
const (
	ColUint64 ColumnKind = 1
	ColBytes  ColumnKind = 2
)

// String names the kind for errors and tools.
func (k ColumnKind) String() string {
	switch k {
	case ColUint64:
		return "uint64"
	case ColBytes:
		return "bytes"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// maxColumns caps a schema; column counts also ride in WAL records and
// column files, where an absurd count must read as corruption.
const maxColumns = 64

// ColumnSpec declares one column of a store's schema: a non-empty name
// (unique within the schema) and a kind.
type ColumnSpec struct {
	Name string
	Kind ColumnKind
}

// validateSchema vets a column schema: bounded count, valid kinds,
// non-empty unique names.
func validateSchema(cols []ColumnSpec) error {
	if len(cols) > maxColumns {
		return fmt.Errorf("store: schema has %d columns (limit %d)", len(cols), maxColumns)
	}
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return fmt.Errorf("store: column %d has an empty name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("store: schema repeats column name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Kind != ColUint64 && c.Kind != ColBytes {
			return fmt.Errorf("store: column %q has invalid kind %d", c.Name, c.Kind)
		}
	}
	return nil
}

// schemaEqual reports whether two schemas are identical (same names and
// kinds in the same order).
func schemaEqual(a, b []ColumnSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Value is one cell of a payload row: NULL (the zero value), a uint64,
// or a byte blob. Construct with Null, U64 or Blob.
type Value struct {
	kind ColumnKind // 0 = NULL
	num  uint64
	b    []byte
}

// Null returns the NULL value — the cell of every column an append did
// not fill, and of every row in data written before the schema existed.
func Null() Value { return Value{} }

// U64 returns a numeric cell value.
func U64(v uint64) Value { return Value{kind: ColUint64, num: v} }

// Blob returns a byte-blob cell value. The bytes are retained as given;
// the append path copies them before sharing.
func Blob(b []byte) Value { return Value{kind: ColBytes, b: b} }

// IsNull reports whether the cell is NULL.
func (v Value) IsNull() bool { return v.kind == 0 }

// Kind returns the cell's kind, 0 for NULL.
func (v Value) Kind() ColumnKind { return v.kind }

// U64 returns the numeric cell value (0 for NULL or blob cells).
func (v Value) U64() uint64 { return v.num }

// Blob returns the blob cell bytes (nil for NULL or numeric cells). The
// returned slice must not be modified: a cell read from the memtable
// aliases store-internal data (one read from a frozen generation is a
// copy, valid for as long as the caller keeps it).
func (v Value) Blob() []byte { return v.b }

// String renders the cell for tools and tests.
func (v Value) String() string {
	switch v.kind {
	case ColUint64:
		return strconv.FormatUint(v.num, 10)
	case ColBytes:
		return string(v.b)
	}
	return "NULL"
}

// Row is one payload row, parallel to the schema: row[i] is the cell of
// column i. A nil Row reads as all-NULL.
type Row []Value

// ValidateRow vets a row against a schema without appending it — the
// check AppendRow performs, exposed so network front-ends can refuse a
// bad row before it reaches a shared commit batch. A nil row is always
// valid (all NULL); otherwise the length must match the schema and
// every non-NULL cell's kind must agree with its column.
func ValidateRow(schema []ColumnSpec, row Row) error { return validateRow(schema, row) }

// validateRow vets a row against the schema: nil is always valid (all
// NULL); otherwise the length must match and every non-NULL cell's kind
// must agree with its column.
func validateRow(schema []ColumnSpec, row Row) error {
	if row == nil {
		return nil
	}
	if len(schema) == 0 {
		return fmt.Errorf("store: row of %d cells on a store with no column schema", len(row))
	}
	if len(row) != len(schema) {
		return fmt.Errorf("store: row has %d cells, schema has %d columns", len(row), len(schema))
	}
	for i, v := range row {
		if !v.IsNull() && v.kind != schema[i].Kind {
			return fmt.Errorf("store: column %q holds %s, row cell %d is %s",
				schema[i].Name, schema[i].Kind, i, v.kind)
		}
	}
	return nil
}

// PredOp is a numeric predicate comparison operator.
type PredOp uint8

// Predicate operators over a numeric column's value.
const (
	PredEQ PredOp = iota + 1
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
)

// String renders the operator as its query syntax.
func (op PredOp) String() string {
	switch op {
	case PredEQ:
		return "=="
	case PredNE:
		return "!="
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Pred is one numeric-column predicate: column Col's value compared
// against Val with Op. NULL cells never match, whatever the operator.
type Pred struct {
	Col int
	Op  PredOp
	Val uint64
}

// validatePreds vets predicates against a schema: column in range and
// numeric, operator known.
func validatePreds(schema []ColumnSpec, preds []Pred) error {
	for _, p := range preds {
		if p.Col < 0 || p.Col >= len(schema) {
			return fmt.Errorf("store: predicate column %d outside schema of %d columns", p.Col, len(schema))
		}
		if k := schema[p.Col].Kind; k != ColUint64 {
			return fmt.Errorf("store: predicate on %s column %q (range filters need uint64)", k, schema[p.Col].Name)
		}
		if p.Op < PredEQ || p.Op > PredGE {
			return fmt.Errorf("store: unknown predicate operator %d", p.Op)
		}
	}
	return nil
}

// ParsePredicate parses the query syntax "<name><op><value>" (e.g.
// "status==200", "lat_us<=2500") against a schema. Operators: == != <
// <= > >=.
func ParsePredicate(expr string, schema []ColumnSpec) (Pred, error) {
	ops := []struct {
		tok string
		op  PredOp
	}{ // two-byte operators first so "<=" never parses as "<"
		{"==", PredEQ}, {"!=", PredNE}, {"<=", PredLE}, {">=", PredGE},
		{"<", PredLT}, {">", PredGT}, {"=", PredEQ},
	}
	for _, o := range ops {
		i := strings.Index(expr, o.tok)
		if i <= 0 {
			continue
		}
		name, valStr := expr[:i], expr[i+len(o.tok):]
		val, err := strconv.ParseUint(valStr, 10, 64)
		if err != nil {
			return Pred{}, fmt.Errorf("store: predicate %q: bad value %q", expr, valStr)
		}
		for c, spec := range schema {
			if spec.Name == name {
				p := Pred{Col: c, Op: o.op, Val: val}
				if err := validatePreds(schema, []Pred{p}); err != nil {
					return Pred{}, err
				}
				return p, nil
			}
		}
		return Pred{}, fmt.Errorf("store: predicate %q names unknown column %q", expr, name)
	}
	return Pred{}, fmt.Errorf("store: predicate %q has no operator (want <name><op><value>)", expr)
}

// ParseColumns parses the CLI schema syntax "name:kind,name:kind" (e.g.
// "status:u64,ua:bytes") into a column schema for Options.Columns.
// Kinds: u64/uint64 and bytes/blob. An empty spec is a nil schema.
func ParseColumns(spec string) ([]ColumnSpec, error) {
	if spec == "" {
		return nil, nil
	}
	var cols []ColumnSpec
	for _, field := range strings.Split(spec, ",") {
		name, kindStr, ok := strings.Cut(strings.TrimSpace(field), ":")
		if !ok {
			return nil, fmt.Errorf("store: column spec %q: want name:kind", field)
		}
		var kind ColumnKind
		switch kindStr {
		case "u64", "uint64":
			kind = ColUint64
		case "bytes", "blob":
			kind = ColBytes
		default:
			return nil, fmt.Errorf("store: column spec %q: unknown kind %q (want u64 or bytes)", field, kindStr)
		}
		cols = append(cols, ColumnSpec{Name: name, Kind: kind})
	}
	if err := validateSchema(cols); err != nil {
		return nil, err
	}
	return cols, nil
}

// predRange maps a predicate to a closed value interval [lo, hi] plus a
// negation flag: count(op) = count(v∈[lo,hi]) normally, or
// count(present) − count(v∈[lo,hi]) when negated (NE — NULLs never
// match, so the complement is taken over present values only). empty
// marks predicates no value satisfies (v < 0, v > MaxUint64).
func predRange(op PredOp, val uint64) (lo, hi uint64, negate, empty bool) {
	const maxU64 = ^uint64(0)
	switch op {
	case PredEQ:
		return val, val, false, false
	case PredNE:
		return val, val, true, false
	case PredLT:
		if val == 0 {
			return 0, 0, false, true
		}
		return 0, val - 1, false, false
	case PredLE:
		return 0, val, false, false
	case PredGT:
		if val == maxU64 {
			return 0, 0, false, true
		}
		return val + 1, maxU64, false, false
	case PredGE:
		return val, maxU64, false, false
	}
	return 0, 0, false, true
}

// matchValue evaluates one predicate against a cell. NULL never
// matches.
func matchValue(v Value, p Pred) bool {
	if v.kind != ColUint64 {
		return false
	}
	switch p.Op {
	case PredEQ:
		return v.num == p.Val
	case PredNE:
		return v.num != p.Val
	case PredLT:
		return v.num < p.Val
	case PredLE:
		return v.num <= p.Val
	case PredGT:
		return v.num > p.Val
	case PredGE:
		return v.num >= p.Val
	}
	return false
}

// colReader is the per-segment column access the snapshot planner
// stitches: cell reads and present/range counts over local positions.
// A nil colReader reads as all-NULL (generations from before the schema
// was pinned).
type colReader interface {
	// colValue returns the cell of column col at local position pos.
	colValue(col, pos int) Value
	// colRange counts positions in [l, r) whose column col cell is
	// present with value in [lo, hi].
	colRange(col, l, r int, lo, hi uint64) int
	// colPresent counts positions in [l, r) whose column col cell is
	// non-NULL.
	colPresent(col, l, r int) int
}

// allNullCols is the colReader of generations frozen before the schema
// was pinned (and of any segment with no column data): every cell is
// NULL, so nothing is present and no predicate matches.
type allNullCols struct{}

func (allNullCols) colValue(col, pos int) Value               { return Value{} }
func (allNullCols) colRange(col, l, r int, lo, hi uint64) int { return 0 }
func (allNullCols) colPresent(col, l, r int) int              { return 0 }

// clampCols bounds a colReader to its segment's first n positions —
// the column analogue of clampSeg, used by prefixed snapshots.
type clampCols struct {
	cols colReader
	n    int
}

func (c clampCols) clamp(r int) int {
	if r > c.n {
		return c.n
	}
	return r
}

func (c clampCols) colValue(col, pos int) Value {
	if pos >= c.n {
		return Value{}
	}
	return c.cols.colValue(col, pos)
}

func (c clampCols) colRange(col, l, r int, lo, hi uint64) int {
	return c.cols.colRange(col, l, c.clamp(r), lo, hi)
}

func (c clampCols) colPresent(col, l, r int) int {
	return c.cols.colPresent(col, l, c.clamp(r))
}

// ---------------------------------------------------------------------------
// Frozen per-generation columns

// Column file containers. Both files carry their CRC-32 in the manifest
// (like generation index files); a mismatch fails Open loudly — column
// data feeds predicate answers, where a silent bit flip would be a
// wrong result, not a degraded one. Version 2 is the only .col version
// read or written: version 1 stored every presence vector and raw planes
// only, and a directory holding one is refused as it stands.
const (
	colMagic   = 0x4D4C4357 // "WCLM" little-endian
	colVersion = 2

	colDirMagic   = 0x52444357 // "WCDR" little-endian
	colDirVersion = 1

	// maxColRows bounds the row count a parsed column file may claim —
	// foreign-input hardening for the fuzzers, far above any real
	// generation.
	maxColRows = 1 << 40
)

// How a .col file states a column's presence: a vector that would be all
// zeros or all ones is a flag.
const (
	presNone = iota // every cell NULL
	presAll         // every cell present
	presBits        // the vector follows
)

func colFileName(id uint64) string    { return fmt.Sprintf("gen-%08d.col", id) }
func colDirFileName(id uint64) string { return fmt.Sprintf("gen-%08d.cd", id) }

// frozenCol is one decoded column of a generation: which of the n
// positions hold a cell, plus — for numeric columns — the bit-plane
// wavelet tree over the m present values, or — for blob columns — the
// offset directory into the payload bytes (bound from the .cd file).
type frozenCol struct {
	kind ColumnKind
	// presence is nil when every cell is present (m == n) or none is
	// (m == 0).
	presence *bitvec.Vector
	m        int // present cells

	// Numeric: width bit planes, MSB first, over the present values — or,
	// when dict is set, over their ranks in dict, the generation's sorted
	// distinct values (width is then ⌈log₂ len(dict)⌉; the freeze keeps
	// whichever layout is smaller, see buildDict). levels[d] holds, for
	// every present value in the stable order of plane d, bit width-1-d;
	// zeros[d] is the total zero count of the plane — the left-subtree
	// offset of the pointerless wavelet-tree layout.
	dict   []uint64
	width  int
	levels []*bitvec.Vector
	zeros  []int

	// Blob: offs[i] .. offs[i+1] delimit present value i in payload.
	offs    []uint64
	payload []byte
}

// frozenCols is a generation's decoded column set. colRegion and cdRegion
// are the mappings its vectors, dictionaries and payloads alias when it
// was mmap-loaded (nil on the heap path): whoever reaches the set — a
// pinned view outliving the generation's compaction included — reaches
// them, and every read holds the set until it returns (see probe.go).
type frozenCols struct {
	n                   int
	cols                []frozenCol
	colRegion, cdRegion *mmapRegion
}

// setPresence records which positions hold a cell; a vector that is all
// zeros or all ones is dropped (m says which).
func (c *frozenCol) setPresence(p *bitvec.Vector) {
	if c.m = p.Rank1(p.Len()); 0 < c.m && c.m < p.Len() {
		c.presence = p
	}
}

// top is the largest value width planes can spell (0 with no plane).
func (c *frozenCol) top() uint64 { return ^uint64(0) >> (64 - uint(c.width)) }

// rank counts the present cells before position pos.
func (c *frozenCol) rank(pos int) int {
	if c.presence != nil {
		return c.presence.Rank1(pos)
	}
	return min(pos, c.m) // all present or none
}

// colValue returns the cell at position pos: NULL unless present, else
// the value reconstructed from the wavelet planes (numeric, O(width)
// ranks and, dictionary-coded, one table entry) or copied out of the
// payload (blob) — a cell handed out must not alias a mapping that only
// the column set keeps alive.
func (fc *frozenCols) colValue(col, pos int) (v Value) {
	c := &fc.cols[col]
	if c.m > 0 && (c.presence == nil || c.presence.Access(pos) == 1) {
		v = fc.presentValue(col, c.rank(pos))
		v.b = bytes.Clone(v.b)
	}
	runtime.KeepAlive(fc)
	return v
}

// presentValue returns the pi-th present value of a column (pi in
// [0, m)) without re-ranking the position — the freeze path already
// knows the present index. A blob aliases the payload; the caller holds
// the set.
func (fc *frozenCols) presentValue(col, pi int) Value {
	c := &fc.cols[col]
	if c.kind == ColBytes {
		return Value{kind: ColBytes, b: c.payload[c.offs[pi]:c.offs[pi+1]]}
	}
	var v uint64
	p := pi
	for d := 0; d < c.width; d++ {
		lv := c.levels[d]
		if lv.Access(p) == 0 {
			v <<= 1
			p = lv.Rank0(p)
		} else {
			v = v<<1 | 1
			p = c.zeros[d] + lv.Rank1(p)
		}
	}
	if c.dict != nil {
		v = c.dict[v] // parseColumn checked every rank against the table
	}
	return Value{kind: ColUint64, num: v}
}

// colPresent counts present cells in [l, r).
func (fc *frozenCols) colPresent(col, l, r int) int {
	c := &fc.cols[col]
	n := c.rank(r) - c.rank(l)
	runtime.KeepAlive(fc)
	return n
}

// colRange counts positions in [l, r) whose cell is present with value
// in [lo, hi] — the predicate pushdown primitive. The positions map to
// a present-index interval through the presence rank, a dictionary maps
// the values to the ranks they cover, then the pointerless wavelet tree
// answers the range count with O(width) bitvector ranks per boundary
// node. No value is ever materialized.
func (fc *frozenCols) colRange(col, l, r int, lo, hi uint64) (count int) {
	c := &fc.cols[col]
	pl, pr := c.rank(l), c.rank(r)
	if c.dict != nil {
		lo, hi = c.rankRange(lo, hi)
	}
	switch {
	case lo > hi || pl >= pr:
	case c.width == 0: // one distinct value: a raw 0, or rank 0
		if lo == 0 {
			count = pr - pl
		}
	default:
		count = c.rangeCount(0, pl, pr, 0, c.top(), lo, hi)
	}
	runtime.KeepAlive(fc)
	return count
}

// rankRange maps a closed value interval to the closed interval of
// dictionary ranks it covers (lo > hi when it covers none). The
// dictionary is sorted, so the order of values is the order of ranks and
// two binary searches do it.
func (c *frozenCol) rankRange(lo, hi uint64) (uint64, uint64) {
	rl, _ := slices.BinarySearch(c.dict, lo)
	rh, found := slices.BinarySearch(c.dict, hi)
	if !found {
		rh-- // dict[rh] > hi: the last rank covered is the one before
	}
	if lo > hi || rl > rh {
		return 1, 0
	}
	return uint64(rl), uint64(rh)
}

// rangeCount is the standard wavelet-tree range-count recursion over
// the level-wise layout: the node at depth d covering present indices
// [a, b) holds values in [nodeLo, nodeHi]; disjoint query intervals
// contribute 0, contained ones contribute b−a, straddling ones split
// into the children through plane-d rank (left child starts at 0 within
// level d+1, right child after the plane's zeros[d] left-descendants).
func (c *frozenCol) rangeCount(d, a, b int, nodeLo, nodeHi, lo, hi uint64) int {
	if b <= a || hi < nodeLo || lo > nodeHi {
		return 0
	}
	if lo <= nodeLo && nodeHi <= hi {
		return b - a
	}
	lv := c.levels[d]
	z0a, z0b := lv.Rank0(a), lv.Rank0(b)
	mid := nodeLo + (nodeHi-nodeLo)>>1
	count := c.rangeCount(d+1, z0a, z0b, nodeLo, mid, lo, hi)
	z := c.zeros[d]
	return count + c.rangeCount(d+1, z+(a-z0a), z+(b-z0b), mid+1, nodeHi, lo, hi)
}

// encodeColumns serializes a generation's columns into the .col image
// and (when any blob columns exist) the .cd offset-directory image.
// cols must be fully built (see colwrite.go). Per column: kind, presence
// mode (and the vector, unless elided); numeric columns add the
// dictionary (empty = raw planes), the plane count, and the planes as
// one word array, ⌈m/64⌉ words each.
func encodeColumns(fc *frozenCols) (colData, cdData []byte) {
	w := wire.NewWriter(colMagic, colVersion)
	w.Int(len(fc.cols))
	w.Int(fc.n)
	blobCols := 0
	for i := range fc.cols {
		c := &fc.cols[i]
		w.Byte(byte(c.kind))
		switch {
		case c.presence != nil:
			w.Byte(presBits)
			c.presence.EncodeTo(w)
		case c.m > 0:
			w.Byte(presAll)
		default:
			w.Byte(presNone)
		}
		if c.kind == ColUint64 {
			w.Words(c.dict)
			w.Byte(byte(c.width))
			planes := make([]uint64, 0, c.width*((c.m+63)/64))
			for _, lv := range c.levels {
				planes = append(planes, lv.Words()...)
			}
			w.Words(planes)
		} else {
			blobCols++
		}
	}
	colData = w.Bytes()
	if blobCols == 0 {
		return colData, nil
	}
	dw := wire.NewWriter(colDirMagic, colDirVersion)
	dw.Int(blobCols)
	for i := range fc.cols {
		c := &fc.cols[i]
		if c.kind != ColBytes {
			continue
		}
		dw.Words(c.offs)
		dw.Int(len(c.payload))
		dw.Words(packBytes(c.payload))
	}
	return colData, dw.Bytes()
}

// parseColumn decodes a .col image: per-column kinds, presence, and the
// numeric dictionaries and wavelet planes. Blob columns come back with
// their offset directory unbound (bindColDir attaches the .cd data).
// Arbitrary input must error, never panic, and nothing it accepts may
// make a later read panic — this function is fuzzed. refs enables
// zero-copy word decoding (mmap'd, checksum-verified input only).
func parseColumn(data []byte, refs bool) (*frozenCols, error) {
	r, err := wire.NewReader(data, colMagic, colVersion)
	if err != nil {
		return nil, err
	}
	if refs {
		r.EnableRefs()
	}
	ncols := r.Int()
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ncols < 0 || ncols > maxColumns {
		return nil, fmt.Errorf("store: column file lists %d columns (limit %d)", ncols, maxColumns)
	}
	if n < 0 || n > maxColRows {
		return nil, fmt.Errorf("store: column file claims %d rows", n)
	}
	fc := &frozenCols{n: n, cols: make([]frozenCol, ncols)}
	for i := 0; i < ncols; i++ {
		c := &fc.cols[i]
		c.kind = ColumnKind(r.Byte())
		mode := r.Byte()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if c.kind != ColUint64 && c.kind != ColBytes {
			return nil, fmt.Errorf("store: column %d has invalid kind %d", i, c.kind)
		}
		switch mode {
		case presNone:
		case presAll:
			c.m = n
		case presBits:
			p := bitvec.DecodeFrom(r)
			if err := r.Err(); err != nil {
				return nil, err
			}
			if p.Len() != n {
				return nil, fmt.Errorf("store: column %d presence covers %d rows, file claims %d", i, p.Len(), n)
			}
			c.setPresence(p)
		default:
			return nil, fmt.Errorf("store: column %d has invalid presence mode %d", i, mode)
		}
		if c.kind != ColUint64 {
			continue
		}
		dict := r.Words()
		c.width = int(r.Byte())
		planes := r.Words()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(dict) == 0 {
			if c.width > 64 {
				return nil, fmt.Errorf("store: column %d has %d bit planes (max 64)", i, c.width)
			}
		} else {
			for j := 1; j < len(dict); j++ {
				if dict[j] <= dict[j-1] {
					return nil, fmt.Errorf("store: column %d dictionary not strictly increasing", i)
				}
			}
			if want := bits.Len(uint(len(dict) - 1)); c.width != want {
				return nil, fmt.Errorf("store: column %d has %d bit planes over a dictionary of %d, want %d", i, c.width, len(dict), want)
			}
			c.dict = dict
		}
		wpp := (c.m + 63) / 64 // words per plane
		if len(planes) != c.width*wpp {
			return nil, fmt.Errorf("store: column %d has %d plane words, want %d × %d", i, len(planes), c.width, wpp)
		}
		c.levels = make([]*bitvec.Vector, c.width)
		c.zeros = make([]int, c.width)
		for d := range c.levels {
			c.levels[d] = bitvec.FromWordsShared(planes[d*wpp:(d+1)*wpp], c.m)
			c.zeros[d] = c.levels[d].Rank0(c.m)
		}
		// Any bit content is the plane set of some m values below 2^width;
		// under a dictionary they must also be ranks it has.
		if c.dict != nil && c.rangeCount(0, 0, c.m, 0, c.top(), uint64(len(dict)), c.top()) != 0 {
			return nil, fmt.Errorf("store: column %d holds a rank outside its dictionary of %d", i, len(dict))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return fc, nil
}

// colDirEntry is one blob column's decoded offset directory.
type colDirEntry struct {
	offs    []uint64
	payload []byte
}

// parseColDir decodes a .cd offset-directory image: per blob column,
// the monotone offsets and the packed payload bytes they index.
// Arbitrary input must error, never panic — this function is fuzzed.
// refs enables zero-copy word decoding.
func parseColDir(data []byte, refs bool) ([]colDirEntry, error) {
	r, err := wire.NewReader(data, colDirMagic, colDirVersion)
	if err != nil {
		return nil, err
	}
	if refs {
		r.EnableRefs()
	}
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if count < 0 || count > maxColumns {
		return nil, fmt.Errorf("store: offset directory lists %d columns (limit %d)", count, maxColumns)
	}
	out := make([]colDirEntry, count)
	for i := range out {
		offs := r.Words()
		byteLen := r.Int()
		words := r.Words()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(offs) == 0 {
			return nil, fmt.Errorf("store: offset directory column %d has no offsets", i)
		}
		if byteLen > 8*len(words) || byteLen < 8*len(words)-7 {
			return nil, fmt.Errorf("store: offset directory column %d claims %d payload bytes in %d words", i, byteLen, len(words))
		}
		for j := 1; j < len(offs); j++ {
			if offs[j] < offs[j-1] {
				return nil, fmt.Errorf("store: offset directory column %d offsets not monotone", i)
			}
		}
		if offs[0] != 0 || offs[len(offs)-1] != uint64(byteLen) {
			return nil, fmt.Errorf("store: offset directory column %d offsets span [%d,%d], payload is %d bytes",
				i, offs[0], offs[len(offs)-1], byteLen)
		}
		out[i] = colDirEntry{offs: offs, payload: unpackBytes(words, byteLen)}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// bindColDir attaches a parsed offset directory to the blob columns of
// a parsed .col image, cross-checking counts: entry i belongs to the
// i-th blob column, and its offset count must be that column's present
// count plus one.
func bindColDir(fc *frozenCols, dirs []colDirEntry) error {
	bi := 0
	for i := range fc.cols {
		c := &fc.cols[i]
		if c.kind != ColBytes {
			continue
		}
		if bi >= len(dirs) {
			return fmt.Errorf("store: offset directory has %d entries, column file has more blob columns", len(dirs))
		}
		d := dirs[bi]
		bi++
		if len(d.offs) != c.m+1 {
			return fmt.Errorf("store: blob column %d has %d present values, offset directory has %d offsets",
				i, c.m, len(d.offs))
		}
		c.offs, c.payload = d.offs, d.payload
	}
	if bi != len(dirs) {
		return fmt.Errorf("store: offset directory has %d entries, column file has %d blob columns", len(dirs), bi)
	}
	return nil
}

// needsColDir reports whether the column set has blob columns (and so a
// .cd file must exist beside the .col file).
func (fc *frozenCols) needsColDir() bool {
	for i := range fc.cols {
		if fc.cols[i].kind == ColBytes {
			return true
		}
	}
	return false
}

// hostIsLittleEndian reports the byte order packBytes/unpackBytes can
// shortcut through; mirrors internal/wire's zero-copy gate.
var hostIsLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// packBytes packs a byte payload into uint64 words, LSB-first — the
// layout wire.Writer.Words round-trips and a little-endian host can
// view back as bytes without copying.
func packBytes(b []byte) []uint64 {
	words := make([]uint64, (len(b)+7)/8)
	for i, x := range b {
		words[i>>3] |= uint64(x) << (uint(i&7) * 8)
	}
	return words
}

// unpackBytes views (or copies) n payload bytes back out of packed
// words: on a little-endian host the byte view aliases the words (which
// may themselves alias an mmap in zero-copy mode); elsewhere it copies.
func unpackBytes(words []uint64, n int) []byte {
	if n == 0 {
		return nil
	}
	if hostIsLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(words[i>>3] >> (uint(i&7) * 8))
	}
	return out
}
