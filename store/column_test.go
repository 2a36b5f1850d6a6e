package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// White-box tests of the columnar attachment subsystem: schema pinning,
// position-aligned reads across every segment shape (memtable, frozen,
// compacted, reopened), predicate pushdown, and the crash/corruption
// contract of the .col/.cd files.

func colTestSchema() []ColumnSpec {
	return []ColumnSpec{
		{Name: "score", Kind: ColUint64},
		{Name: "meta", Kind: ColBytes},
	}
}

func colTestOpts() *Options {
	o := testOpts()
	o.Columns = colTestSchema()
	return o
}

// cellEq compares two cells by kind and value (Value is not comparable:
// blob cells carry a slice).
func cellEq(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case ColUint64:
		return a.U64() == b.U64()
	case ColBytes:
		return bytes.Equal(a.Blob(), b.Blob())
	}
	return true // both NULL
}

// rowCell is the oracle's cell accessor: a nil or short row reads NULL.
func rowCell(rows []Row, pos, col int) Value {
	if pos >= len(rows) || col >= len(rows[pos]) {
		return Value{}
	}
	return rows[pos][col]
}

// colSnap is the column read surface shared by Snapshot and
// ShardedSnapshot, for oracle checks that cover both.
type colSnap interface {
	Len() int
	Access(pos int) string
	Row(pos int) Row
	CountWhere(prefix string, preds ...Pred) (int, error)
	IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error
}

// checkColumns verifies the snapshot's whole column read surface
// against the flat (vals, rows) oracle: every row cell, and
// CountWhere/IterateWhere over a battery of prefix × predicate shapes.
func checkColumns(t *testing.T, sn colSnap, vals []string, rows []Row) {
	t.Helper()
	if sn.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", sn.Len(), len(vals))
	}
	schema := colTestSchema()
	for pos := range vals {
		if g := sn.Access(pos); g != vals[pos] {
			t.Fatalf("Access(%d) = %q, want %q", pos, g, vals[pos])
		}
		row := sn.Row(pos)
		if len(row) != len(schema) {
			t.Fatalf("Row(%d) has %d cells, want %d", pos, len(row), len(schema))
		}
		for c := range row {
			if want := rowCell(rows, pos, c); !cellEq(row[c], want) {
				t.Fatalf("Row(%d)[%d] = %v, want %v", pos, c, row[c], want)
			}
		}
	}

	prefixes := []string{"", "api/", "api/a", "web/", "nosuch/"}
	predSets := [][]Pred{
		nil,
		{{Col: 0, Op: PredGE, Val: 50}},
		{{Col: 0, Op: PredEQ, Val: 7}},
		{{Col: 0, Op: PredLT, Val: 20}},
		{{Col: 0, Op: PredNE, Val: 0}},
		{{Col: 0, Op: PredGT, Val: 10}, {Col: 0, Op: PredLE, Val: 90}},
	}
	for _, p := range prefixes {
		for _, preds := range predSets {
			var wantPos []int
			for pos := range vals {
				if !strings.HasPrefix(vals[pos], p) {
					continue
				}
				ok := true
				for _, pr := range preds {
					if !matchValue(rowCell(rows, pos, pr.Col), pr) {
						ok = false
						break
					}
				}
				if ok {
					wantPos = append(wantPos, pos)
				}
			}
			got, err := sn.CountWhere(p, preds...)
			if err != nil {
				t.Fatalf("CountWhere(%q, %v): %v", p, preds, err)
			}
			if got != len(wantPos) {
				t.Fatalf("CountWhere(%q, %v) = %d, want %d", p, preds, got, len(wantPos))
			}
			from := len(wantPos) / 3
			var gotPos []int
			err = sn.IterateWhere(p, from, preds, func(idx, pos int) bool {
				if idx != from+len(gotPos) {
					t.Fatalf("IterateWhere(%q, %d, %v): idx %d out of order", p, from, preds, idx)
				}
				gotPos = append(gotPos, pos)
				return true
			})
			if err != nil {
				t.Fatalf("IterateWhere(%q, %d, %v): %v", p, from, preds, err)
			}
			want := wantPos[min(from, len(wantPos)):]
			if len(gotPos) != len(want) {
				t.Fatalf("IterateWhere(%q, %d, %v) yielded %d matches, want %d",
					p, from, preds, len(gotPos), len(want))
			}
			for i := range want {
				if gotPos[i] != want[i] {
					t.Fatalf("IterateWhere(%q, %d, %v) match %d at pos %d, want %d",
						p, from, preds, i, gotPos[i], want[i])
				}
			}
		}
	}
}

// colTestData builds n values over a few prefixes with a deterministic
// mixed-row pattern: nil rows, NULL cells, and both cell kinds.
func colTestData(n int) ([]string, []Row) {
	vals := make([]string, n)
	rows := make([]Row, n)
	for i := range vals {
		switch i % 3 {
		case 0:
			vals[i] = fmt.Sprintf("api/a%02d", i%11)
		case 1:
			vals[i] = fmt.Sprintf("api/b%02d", i%7)
		default:
			vals[i] = fmt.Sprintf("web/c%02d", i%5)
		}
		switch i % 4 {
		case 0: // full row
			rows[i] = Row{U64(uint64(i % 100)), Blob([]byte(fmt.Sprintf("m%d", i)))}
		case 1: // numeric only
			rows[i] = Row{U64(uint64(i % 100)), Null()}
		case 2: // blob only
			rows[i] = Row{Null(), Blob([]byte{byte(i)})}
		default: // no payload at all
			rows[i] = nil
		}
	}
	return vals, rows
}

// TestColumnEndToEnd drives (vals, rows) through every segment shape —
// memtable, frozen generation, compacted generation, reopened store
// under both load paths — checking the full column read surface at
// each stage against the flat oracle.
func TestColumnEndToEnd(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	vals, rows := colTestData(120)

	// Stage 1: first 60 through AppendRow, still memtable-resident.
	for i := 0; i < 60; i++ {
		if err := s.AppendRow(vals[i], rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	checkColumns(t, s.Snapshot(), vals[:60], rows[:60])

	// Stage 2: freeze them, then batch-append the rest on top.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, s.Snapshot(), vals[:60], rows[:60])
	if err := s.AppendBatchRows(vals[60:], rows[60:]); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, s.Snapshot(), vals, rows) // frozen + memtable mix

	// Stage 3: two generations merged into one.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, s.Snapshot(), vals, rows)

	// ColumnView over the compacted store.
	sn := s.Snapshot()
	for c := range colTestSchema() {
		cv := sn.Column(c)
		if cv.Spec() != colTestSchema()[c] {
			t.Fatalf("Column(%d).Spec = %+v", c, cv.Spec())
		}
		present := 0
		for pos := range vals {
			want := rowCell(rows, pos, c)
			if !want.IsNull() {
				present++
			}
			if g := cv.Value(pos); !cellEq(g, want) {
				t.Fatalf("Column(%d).Value(%d) = %v, want %v", c, pos, g, want)
			}
		}
		if g := cv.Present(); g != present {
			t.Fatalf("Column(%d).Present = %d, want %d", c, g, present)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Stage 4: reopen under both load paths; schema is adopted from the
	// manifest (Options.Columns omitted).
	for _, noMmap := range []bool{false, true} {
		opts := testOpts()
		opts.NoMmap = noMmap
		s2 := mustOpen(t, dir, opts)
		if !schemaEqual(s2.Schema(), colTestSchema()) {
			t.Fatalf("NoMmap=%v: reopened schema %+v", noMmap, s2.Schema())
		}
		checkColumns(t, s2.Snapshot(), vals, rows)
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColumnWALReplay: payload rows ride the WAL — a directory copied
// mid-life (the crash image: nothing flushed since the appends) must
// replay every acked row, not just the values.
func TestColumnWALReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	vals, rows := colTestData(50)

	// A flushed floor plus a WAL-only tail.
	for i := 0; i < 20; i++ {
		if err := s.AppendRow(vals[i], rows[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 50; i++ {
		if err := s.AppendRow(vals[i], rows[i]); err != nil {
			t.Fatal(err)
		}
	}

	crashDir := filepath.Join(t.TempDir(), "crash")
	copyTree(t, dir, crashDir)
	s.Close()

	crashed := mustOpen(t, crashDir, testOpts())
	defer crashed.Close()
	checkColumns(t, crashed.Snapshot(), vals, rows)
}

// TestColumnSchemaMismatchFailsOpen: the schema is fixed at creation —
// reopening with a different Options.Columns must refuse, loudly.
func TestColumnSchemaMismatchFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	mustAppend(t, s, "a")
	s.Close()

	for _, cols := range [][]ColumnSpec{
		{{Name: "score", Kind: ColUint64}},                                  // missing column
		{{Name: "score", Kind: ColBytes}, {Name: "meta", Kind: ColBytes}},   // kind change
		{{Name: "points", Kind: ColUint64}, {Name: "meta", Kind: ColBytes}}, // rename
	} {
		opts := testOpts()
		opts.Columns = cols
		s2, err := Open(dir, opts)
		if err == nil {
			s2.Close()
			t.Fatalf("Open with schema %+v succeeded", cols)
		}
		if !strings.Contains(err.Error(), "pins a different column schema") {
			t.Fatalf("schema %+v: error %q does not name the mismatch", cols, err)
		}
	}
}

// TestColumnPreSchemaCompat: a store created without columns — frozen
// generations, WAL tail and all — reopened with Options.Columns adopts
// the schema and serves its whole history as all-NULL rows; appends
// from then on carry payloads.
func TestColumnPreSchemaCompat(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, testOpts())
	old := []string{"api/a00", "api/b00", "web/c00"}
	mustAppend(t, s, old[:2]...)
	if err := s.Flush(); err != nil { // pre-schema generation
		t.Fatal(err)
	}
	mustAppend(t, s, old[2]) // pre-schema WAL record
	s.Close()

	s2 := mustOpen(t, dir, colTestOpts())
	if !schemaEqual(s2.Schema(), colTestSchema()) {
		t.Fatalf("adopted schema %+v", s2.Schema())
	}
	vals := append([]string(nil), old...)
	rows := make([]Row, len(old)) // history reads all-NULL
	checkColumns(t, s2.Snapshot(), vals, rows)

	// New appends carry payloads next to the NULL history; flushing
	// merges pre-schema and columned generations.
	if err := s2.AppendRow("api/a01", Row{U64(77), Blob([]byte("new"))}); err != nil {
		t.Fatal(err)
	}
	vals = append(vals, "api/a01")
	rows = append(rows, Row{U64(77), Blob([]byte("new"))})
	checkColumns(t, s2.Snapshot(), vals, rows)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	checkColumns(t, s2.Snapshot(), vals, rows)
	s2.Close()

	s3 := mustOpen(t, dir, testOpts())
	defer s3.Close()
	checkColumns(t, s3.Snapshot(), vals, rows)
}

// TestTornColumnFileFailsOpen tears each column-side file in turn: the
// manifest CRC must catch truncation and bit flips under both load
// paths — column bits answer predicates directly, so a silently torn
// file would be a wrong answer, not a degraded one.
func TestTornColumnFileFailsOpen(t *testing.T) {
	for _, ext := range []string{".col", ".cd"} {
		for _, mode := range []string{"truncate", "bitflip"} {
			t.Run(ext+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				s := mustOpen(t, dir, colTestOpts())
				vals, rows := colTestData(80)
				if err := s.AppendBatchRows(vals, rows); err != nil {
					t.Fatal(err)
				}
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				s.Close()

				matches, err := filepath.Glob(filepath.Join(dir, "gen-*"+ext))
				if err != nil || len(matches) == 0 {
					t.Fatalf("no %s files: %v", ext, err)
				}
				victim := matches[0]
				data, err := os.ReadFile(victim)
				if err != nil {
					t.Fatal(err)
				}
				switch mode {
				case "truncate":
					data = data[:len(data)/2]
				case "bitflip":
					data[len(data)/2] ^= 0x40
				}
				if err := os.WriteFile(victim, data, 0o644); err != nil {
					t.Fatal(err)
				}

				for _, noMmap := range []bool{false, true} {
					opts := colTestOpts()
					opts.NoMmap = noMmap
					s2, err := Open(dir, opts)
					if err == nil {
						s2.Close()
						t.Fatalf("Open(NoMmap=%v) of torn %s succeeded", noMmap, ext)
					}
					if !strings.Contains(err.Error(), "checksum") {
						t.Fatalf("Open(NoMmap=%v) error %q does not name the checksum", noMmap, err)
					}
				}
			})
		}
	}
}

// TestOrphanColumnFileCleanup: column files no manifest references — a
// crash between writeColumnFiles and the manifest commit — are
// reclaimed on Open, and the live generation's column files survive.
func TestOrphanColumnFileCleanup(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	vals, rows := colTestData(40)
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.Generations()[0].ID
	s.Close()

	orphans := []string{
		filepath.Join(dir, colFileName(live+40)),
		filepath.Join(dir, colDirFileName(live+40)),
		filepath.Join(dir, colFileName(live+41)+".tmp"),
		filepath.Join(dir, colDirFileName(live+41)+".tmp"),
	}
	for _, path := range orphans {
		if err := os.WriteFile(path, []byte("dead column file"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	checkColumns(t, s2.Snapshot(), vals, rows)
	for _, path := range orphans {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", path)
		}
	}
	for _, path := range []string{colFileName(live), colDirFileName(live)} {
		if _, err := os.Stat(filepath.Join(dir, path)); err != nil {
			t.Fatalf("live column file removed: %v", err)
		}
	}
}

// TestColumnValidation covers the row/predicate vetting surface: rows
// against schemas, predicate parsing, and the CountWhere errors.
func TestColumnValidation(t *testing.T) {
	schema := colTestSchema()
	for _, bad := range []Row{
		{U64(1)},                    // too short
		{U64(1), Null(), Null()},    // too long
		{Blob([]byte("x")), Null()}, // kind mismatch (blob in u64 col)
		{Null(), U64(9)},            // kind mismatch (u64 in blob col)
	} {
		if err := ValidateRow(schema, bad); err == nil {
			t.Fatalf("ValidateRow accepted %v", bad)
		}
	}
	for _, ok := range []Row{nil, {Null(), Null()}, {U64(0), Blob(nil)}} {
		if err := ValidateRow(schema, ok); err != nil {
			t.Fatalf("ValidateRow(%v): %v", ok, err)
		}
	}
	if err := ValidateRow(nil, Row{U64(1)}); err == nil {
		t.Fatal("ValidateRow accepted a row on a schema-less store")
	}

	for expr, want := range map[string]Pred{
		"score==7":  {Col: 0, Op: PredEQ, Val: 7},
		"score=7":   {Col: 0, Op: PredEQ, Val: 7},
		"score!=0":  {Col: 0, Op: PredNE, Val: 0},
		"score<=25": {Col: 0, Op: PredLE, Val: 25},
		"score>100": {Col: 0, Op: PredGT, Val: 100},
	} {
		got, err := ParsePredicate(expr, schema)
		if err != nil {
			t.Fatalf("ParsePredicate(%q): %v", expr, err)
		}
		if got != want {
			t.Fatalf("ParsePredicate(%q) = %+v, want %+v", expr, got, want)
		}
	}
	for _, expr := range []string{"", "score", "score==", "score==x", "nosuch==1", "meta==1", "==5"} {
		if _, err := ParsePredicate(expr, schema); err == nil {
			t.Fatalf("ParsePredicate(%q) succeeded", expr)
		}
	}

	for spec, want := range map[string][]ColumnSpec{
		"":                      nil,
		"score:u64":             {{Name: "score", Kind: ColUint64}},
		"score:uint64,ua:bytes": {{Name: "score", Kind: ColUint64}, {Name: "ua", Kind: ColBytes}},
		"a:u64, b:blob":         {{Name: "a", Kind: ColUint64}, {Name: "b", Kind: ColBytes}},
	} {
		got, err := ParseColumns(spec)
		if err != nil {
			t.Fatalf("ParseColumns(%q): %v", spec, err)
		}
		if !schemaEqual(got, want) {
			t.Fatalf("ParseColumns(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, spec := range []string{"score", "score:int", ":u64", "a:u64,a:bytes"} {
		if _, err := ParseColumns(spec); err == nil {
			t.Fatalf("ParseColumns(%q) succeeded", spec)
		}
	}

	s := mustOpen(t, t.TempDir(), colTestOpts())
	defer s.Close()
	sn := s.Snapshot()
	if _, err := sn.CountWhere("", Pred{Col: 5, Op: PredEQ, Val: 1}); err == nil {
		t.Fatal("CountWhere accepted an out-of-schema column")
	}
	if _, err := sn.CountWhere("", Pred{Col: 1, Op: PredEQ, Val: 1}); err == nil {
		t.Fatal("CountWhere accepted a predicate on a blob column")
	}
	if _, err := sn.CountWhere("", Pred{Col: 0, Op: 99, Val: 1}); err == nil {
		t.Fatal("CountWhere accepted an unknown operator")
	}
}

// countWhereSink keeps the measured calls from being optimized away.
var countWhereSink int

// TestCountWhereAllocations: a single numeric predicate with no prefix
// is answered by rank arithmetic straight off the wavelet planes — no
// row, cell or buffer may be materialized. Zero allocations, exactly.
func TestCountWhereAllocations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	defer s.Close()

	const n = 1 << 16
	for i := 0; i < n; i++ {
		if err := s.AppendRow(fmt.Sprintf("api/v%03d", i%512),
			Row{U64(uint64(i % 1000)), Null()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	expect := 0
	for i := 0; i < n; i++ {
		if i%1000 >= 500 {
			expect++
		}
	}
	sn := s.Snapshot()
	preds := []Pred{{Col: 0, Op: PredGE, Val: 500}}
	want, err := sn.CountWhere("", preds...)
	if err != nil {
		t.Fatal(err)
	}
	if want != expect {
		t.Fatalf("CountWhere = %d, want %d", want, expect)
	}

	allocs := testing.AllocsPerRun(100, func() {
		c, err := sn.CountWhere("", preds...)
		if err != nil || c != want {
			t.Fatalf("CountWhere = %d, %v", c, err)
		}
		countWhereSink += c
	})
	if allocs != 0 {
		t.Fatalf("CountWhere allocated %.1f times per call, want 0", allocs)
	}
}

// TestColumnBitsPerRow is the space guard for the frozen columns: 16 384
// rows of the benchmark's schema and distribution (status 500 for one row
// in twenty and 200 otherwise, bytes uniform below 2¹⁶) beside a constant
// column must cost one plane for status, sixteen for bytes, none for the
// constant and no presence vector — 17 bits a row and under 0.1 of framing.
func TestColumnBitsPerRow(t *testing.T) {
	const n = 1 << 14
	opts := testOpts()
	opts.Columns = []ColumnSpec{{Name: "status", Kind: ColUint64}, {Name: "bytes", Kind: ColUint64}, {Name: "dc", Kind: ColUint64}}
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	vals, rows := make([]string, n), make([]Row, n)
	for i := range vals {
		status := uint64(200)
		if rng.Intn(20) == 0 {
			status = 500
		}
		vals[i] = fmt.Sprintf("api/v%03d", rng.Intn(512))
		rows[i] = Row{U64(status), U64(uint64(rng.Intn(1 << 16))), U64(7)}
	}
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got := float64(8*s.Generations()[0].ColFileBytes) / n
	t.Logf("%.3f bits/row", got)
	if got > 17.1 {
		t.Errorf("column file costs %.3f bits/row, want ≤ 17.1", got)
	}
	for j, planes := range []int{1, 16, 0} {
		c := &s.state.Load().gens[0].cols.cols[j]
		if len(c.levels) != planes || c.presence != nil {
			t.Errorf("column %s: %d planes (want %d), presence vector kept = %v (want elided)",
				opts.Columns[j].Name, len(c.levels), planes, c.presence != nil)
		}
	}
}

// TestColumnDifferential: randomized appends with payloads against the
// flat (vals, rows) oracle, plain and sharded, across flush, compact,
// a mid-life crash image, close and reopen. Mirrors the value-only
// differential suite with the column surface added; its "encodings"
// subtests hold both frozen layouts to the same oracle.
func TestColumnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	plainDir, shardDir := t.TempDir(), t.TempDir()
	s := mustOpen(t, plainDir, colTestOpts())
	ss := mustOpenShardedCols(t, shardDir)

	randRow := func(i int) Row {
		switch rng.Intn(10) {
		case 0, 1, 2: // 30% no payload
			return nil
		default:
			row := Row{Null(), Null()}
			if rng.Intn(5) != 0 {
				row[0] = U64(uint64(rng.Intn(100)))
			}
			if rng.Intn(5) != 0 {
				b := make([]byte, rng.Intn(12))
				rng.Read(b)
				row[1] = Blob(b)
			}
			return row
		}
	}
	var vals []string
	var rows []Row
	appendBoth := func(v string, row Row) {
		if err := s.AppendRow(v, row); err != nil {
			t.Fatal(err)
		}
		if err := ss.AppendRow(v, row); err != nil {
			t.Fatal(err)
		}
		vals = append(vals, v)
		rows = append(rows, row)
	}

	var crashPlain, crashShard string
	var crashLen int
	for i := 0; i < 600; i++ {
		switch i % 3 {
		case 0:
			appendBoth(fmt.Sprintf("api/a%02d", rng.Intn(40)), randRow(i))
		case 1:
			appendBoth(fmt.Sprintf("api/b%02d", rng.Intn(20)), randRow(i))
		default:
			appendBoth(fmt.Sprintf("web/c%02d", rng.Intn(30)), randRow(i))
		}
		switch i {
		case 150, 300, 450:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
		case 320:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
		case 380: // crash image: flushed floor + WAL tail, mid-life
			crashPlain = filepath.Join(t.TempDir(), "crash-plain")
			crashShard = filepath.Join(t.TempDir(), "crash-shard")
			copyTree(t, plainDir, crashPlain)
			copyTree(t, shardDir, crashShard)
			crashLen = len(vals)
		}
	}

	checkColumns(t, s.Snapshot(), vals, rows)
	checkColumns(t, ss.Snapshot(), vals, rows)
	if p, q := s.Snapshot().ContentFingerprint(), ss.Snapshot().ContentFingerprint(); p != q {
		t.Fatalf("ContentFingerprint diverged: plain %#x, sharded %#x", p, q)
	}
	s.Close()
	ss.Close()

	// The crash images must replay every acked row up to the copy.
	cs := mustOpen(t, crashPlain, testOpts())
	checkColumns(t, cs.Snapshot(), vals[:crashLen], rows[:crashLen])
	cs.Close()
	css, err := OpenSharded(crashShard, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkColumns(t, css.Snapshot(), vals[:crashLen], rows[:crashLen])
	css.Close()

	// Clean reopens agree with the oracle and with each other.
	s2 := mustOpen(t, plainDir, testOpts())
	defer s2.Close()
	ss2, err := OpenSharded(shardDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	checkColumns(t, s2.Snapshot(), vals, rows)
	checkColumns(t, ss2.Snapshot(), vals, rows)
	if p, q := s2.Snapshot().ContentFingerprint(), ss2.Snapshot().ContentFingerprint(); p != q {
		t.Fatalf("reopened ContentFingerprint diverged: plain %#x, sharded %#x", p, q)
	}
	t.Run("encodings", testColumnEncodings)
}

// allPredOps is every comparison a predicate can make.
var allPredOps = []PredOp{PredEQ, PredNE, PredLT, PredLE, PredGT, PredGE}

// checkPreds holds sn's numeric column col to the flat oracle: every cell,
// and for every operator against every bound the rank-arithmetic count
// (no prefix) and the per-candidate count (under a prefix), and for the
// middle bound the matching positions.
func checkPreds(t *testing.T, sn colSnap, vals []string, rows []Row, col int, prefix string, bounds []uint64) {
	t.Helper()
	if sn.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", sn.Len(), len(vals))
	}
	for pos := range vals {
		if got, want := sn.Row(pos)[col], rowCell(rows, pos, col); !cellEq(got, want) {
			t.Fatalf("Row(%d)[%d] = %v, want %v", pos, col, got, want)
		}
	}
	for _, op := range allPredOps {
		for _, b := range bounds {
			p := Pred{Col: col, Op: op, Val: b}
			var want []int
			under := 0
			for pos := range vals {
				if matchValue(rowCell(rows, pos, col), p) {
					want = append(want, pos)
					if strings.HasPrefix(vals[pos], prefix) {
						under++
					}
				}
			}
			if got, err := sn.CountWhere("", p); err != nil || got != len(want) {
				t.Fatalf("CountWhere(%s %d) = %d, %v, want %d", op, b, got, err, len(want))
			}
			if got, err := sn.CountWhere(prefix, p); err != nil || got != under {
				t.Fatalf("CountWhere(%q, %s %d) = %d, %v, want %d", prefix, op, b, got, err, under)
			}
			if b != bounds[len(bounds)/2] {
				continue // positions: one bound an operator is enough
			}
			var got []int
			if err := sn.IterateWhere("", 0, []Pred{p}, func(_, pos int) bool {
				got = append(got, pos)
				return true
			}); err != nil || !slices.Equal(got, want) {
				t.Fatalf("IterateWhere(%s %d) = %d positions, %v, want %d", op, b, len(got), err, len(want))
			}
		}
	}
}

// testColumnEncodings drives one numeric column through both frozen
// layouts — raw planes and planes over dictionary ranks — and both
// presence forms, against the one flat oracle: per case a plain and a
// two-shard store take three flushes (the middle one always raw-coded,
// so compaction merges victims of different layouts and different
// dictionaries), a compaction and a reopen under each load path, every
// stage answering every operator against bounds below, inside, between
// and above the stored values.
func testColumnEncodings(t *testing.T) {
	const seg = 128 // rows per flush
	const maxU64 = ^uint64(0)
	// wide spreads d values from 3 to 2⁶⁴−1; narrow uses 0..d−1, whose
	// ⌈log₂ d⌉ raw planes no dictionary can undercut.
	wide := func(d int) []uint64 {
		out := []uint64{maxU64}
		for k := 1; k < d; k++ {
			out = append(out, 3+uint64(k-1)*((maxU64-3)/uint64(d)))
		}
		return out
	}
	narrow := func(d int) []uint64 {
		out := make([]uint64, d)
		for k := range out {
			out[k] = uint64(k)
		}
		return out
	}
	type encCase struct {
		name     string
		set      []uint64 // the distinct values of the first and last flush
		nullEach int      // every nullEach-th row is NULL (0 = none, 1 = all)
		dict     bool     // whether the first flush must come out dictionary-coded
	}
	cases := []encCase{{"allnull", wide(2), 1, false}}
	for _, d := range []int{1, 2, 3, 255, 256, 257, seg/2 + 9} {
		// 255 and up exceed a 128-row flush; the dictionary then holds
		// the ≤ 128 values drawn, still far below 64 raw planes.
		cases = append(cases, encCase{fmt.Sprintf("wide%d", d), wide(d), 0, true})
		if d <= 2 || d >= 257 {
			cases = append(cases, encCase{fmt.Sprintf("wide%d/sparse", d), wide(d), 7, true})
		}
	}
	for _, d := range []int{2, 256, 257} {
		cases = append(cases, encCase{fmt.Sprintf("narrow%d", d), narrow(d), 0, false})
	}
	schema := []ColumnSpec{{Name: "v", Kind: ColUint64}}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.set))))
			opts := testOpts()
			opts.Columns = schema
			dir, sdir := t.TempDir(), t.TempDir()
			s := mustOpen(t, dir, opts)
			ss, err := OpenSharded(sdir, &ShardedOptions{Shards: 2, Store: *opts})
			if err != nil {
				t.Fatal(err)
			}
			var vals []string
			var rows []Row
			for i := 0; i < 3*seg; i++ {
				v := tc.set[rng.Intn(len(tc.set))]
				if i/seg == 1 {
					v = uint64(rng.Intn(1 << 10)) // ≈ 120 distinct 10-bit values: raw
				}
				row := Row{U64(v)}
				if tc.nullEach > 0 && i%tc.nullEach == 0 {
					row = nil
				}
				vals = append(vals, fmt.Sprintf("k/%02d", rng.Intn(40)))
				rows = append(rows, row)
				if err := s.AppendRow(vals[i], row); err != nil {
					t.Fatal(err)
				}
				if err := ss.AppendRow(vals[i], row); err != nil {
					t.Fatal(err)
				}
				if i%seg == seg-1 {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					if err := ss.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			gens := s.state.Load().gens
			if len(gens) != 3 {
				t.Fatalf("%d generations, want 3", len(gens))
			}
			if got := gens[0].cols.cols[0].dict != nil; got != tc.dict {
				t.Fatalf("first flush dictionary-coded = %v, want %v", got, tc.dict)
			}
			if tc.nullEach != 1 && gens[1].cols.cols[0].dict != nil {
				t.Fatal("the 10-bit flush came out dictionary-coded")
			}
			if c := &gens[0].cols.cols[0]; (c.presence == nil) != (tc.nullEach < 2) {
				t.Fatalf("presence vector kept = %v with every %d-th row NULL", c.presence != nil, tc.nullEach)
			}

			lo, hi := slices.Min(tc.set), slices.Max(tc.set)
			mid := tc.set[len(tc.set)/2]
			bounds := []uint64{0, lo - 1, lo, lo + 1, mid - 1, mid, mid + 1, 512, hi - 1, hi, hi + 1, maxU64}
			check := func(stage string, sn colSnap) {
				t.Helper()
				defer func() {
					if t.Failed() {
						t.Logf("at stage %s", stage)
					}
				}()
				checkPreds(t, sn, vals, rows, 0, "k/1", bounds)
			}
			check("flushed", s.Snapshot())
			check("sharded flushed", ss.Snapshot())
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
			check("compacted", s.Snapshot())
			check("sharded compacted", ss.Snapshot())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			for _, noMmap := range []bool{false, true} {
				ropts := testOpts()
				ropts.NoMmap = noMmap
				s2 := mustOpen(t, dir, ropts)
				check(fmt.Sprintf("reopened NoMmap=%v", noMmap), s2.Snapshot())
				s2.Close()
				ss2, err := OpenSharded(sdir, &ShardedOptions{Store: *ropts})
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("sharded reopened NoMmap=%v", noMmap), ss2.Snapshot())
				ss2.Close()
			}
		})
	}
}

func mustOpenShardedCols(t *testing.T, dir string) *ShardedStore {
	t.Helper()
	opts := &ShardedOptions{Shards: 3, Store: *colTestOpts()}
	ss, err := OpenSharded(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}
