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

	"repro/internal/model"
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

// colTestCmds returns the commands appending colTestData(n) in batches
// of up to 20 values, with extra after the at-th value.
func colTestCmds(n, at int, extra ...model.Cmd) []model.Cmd {
	vals, rows := colTestData(n)
	var cmds []model.Cmd
	for lo := 0; lo < n; {
		hi := min(lo+20, n)
		if lo < at && at < hi {
			hi = at
		}
		if lo == at {
			cmds = append(cmds, extra...)
		}
		cmds = append(cmds, model.Cmd{Op: model.OpBatch, Vals: vals[lo:hi], Rows: modelRows(rows[lo:hi])})
		lo = hi
	}
	return cmds
}

// TestColumnEndToEnd drives values and rows through every segment shape
// — memtable, frozen generation, compacted generation, reopened store —
// through the model's runner.
func TestColumnEndToEnd(t *testing.T) {
	cmds := colTestCmds(120, 60, model.Cmd{Op: model.OpFlush})
	model.Run(t, ModelSchema, ModelLayout{Name: "columnar", Cols: true}.Open,
		append(cmds, model.Cmd{Op: model.OpFlush}, model.Cmd{Op: model.OpCompact}, model.Cmd{Op: model.OpReopen}))
}

// TestColumnWALReplay: payload rows ride the WAL — a directory copied
// mid-life (the crash image: nothing flushed since the appends) must
// replay every acked row, not just the values.
func TestColumnWALReplay(t *testing.T) {
	cmds := colTestCmds(50, 20, model.Cmd{Op: model.OpFlush})
	model.Run(t, ModelSchema, ModelLayout{Name: "columnar", Cols: true}.Open, append(cmds, model.Cmd{Op: model.OpCrash}))
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
	CheckModel(t, s2.Snapshot(), vals, rows, ModelSchema...)

	// New appends carry payloads next to the NULL history; flushing
	// merges pre-schema and columned generations.
	if err := s2.AppendRow("api/a01", Row{U64(77), Blob([]byte("new"))}); err != nil {
		t.Fatal(err)
	}
	vals = append(vals, "api/a01")
	rows = append(rows, Row{U64(77), Blob([]byte("new"))})
	CheckModel(t, s2.Snapshot(), vals, rows, ModelSchema...)
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	CheckModel(t, s2.Snapshot(), vals, rows, ModelSchema...)
	s2.Close()

	s3 := mustOpen(t, dir, testOpts())
	defer s3.Close()
	CheckModel(t, s3.Snapshot(), vals, rows, ModelSchema...)
}

// TestTornColumnFileFailsOpen tears each column-side section of a
// generation file in turn — ".col" the column section, ".cd" the blob
// directory section — cutting the file inside it or flipping a bit in
// it: the manifest CRC must catch both, whether the file is mapped or
// read onto the heap — column bits answer predicates directly, so a
// silently torn section would be a wrong answer, not a degraded one.
func TestTornColumnFileFailsOpen(t *testing.T) {
	for ext, sec := range map[string]int{".col": secCols, ".cd": secBlobs} {
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
				victim := filepath.Join(dir, genFileName(s.Generations()[0].ID))
				s.Close()

				data, foot, _ := genFileSections(t, victim)
				mid := foot[sec].off + foot[sec].n/2
				switch mode {
				case "truncate":
					data = data[:mid]
				case "bitflip":
					data[mid] ^= 0x40
				}
				if err := os.WriteFile(victim, data, 0o644); err != nil {
					t.Fatal(err)
				}

				s2, err := Open(dir, colTestOpts())
				if err == nil {
					s2.Close()
					t.Fatalf("Open of torn %s section succeeded", ext)
				}
				if !strings.Contains(err.Error(), "checksum") {
					t.Fatalf("Open error %q does not name the checksum", err)
				}
				if _, _, err := heapGenerations(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
					t.Fatalf("heap decode of torn %s section: error %v does not name the checksum", ext, err)
				}
			})
		}
	}
}

// TestOrphanColumnFileCleanup: columnar generation files no manifest
// references — a crash between a flush's or compaction's generation
// write and the manifest commit, or in the middle of that write — are
// reclaimed on Open, and the live generation's file survives with its
// column sections.
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

	ix, err := freezeSeq(vals)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writeGenerationFrom(dir, live+40, colTestSchema(), fuzzColFeeder{rows}, ix); err != nil {
		t.Fatal(err)
	}
	orphan, tmp := filepath.Join(dir, genFileName(live+40)), filepath.Join(dir, genFileName(live+41)+".tmp")
	data, err := os.ReadFile(orphan)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, testOpts())
	defer s2.Close()
	CheckModel(t, s2.Snapshot(), vals, rows, ModelSchema...)
	for _, path := range []string{orphan, tmp} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived Open", path)
		}
	}
	if g := s2.Generations(); len(g) != 1 || g[0].ID != live || g[0].ColFileBytes == 0 || g[0].ColDirFileBytes == 0 {
		t.Fatalf("live generation lost its column sections: %+v", g)
	}
	if _, err := os.Stat(filepath.Join(dir, genFileName(live))); err != nil {
		t.Fatalf("live generation file removed: %v", err)
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
	// A filtered scan's refusals name the operation called.
	nop := func(int, int, []byte, Row) bool { return true }
	for want, err := range map[string]error{
		"store: IterateWhere from -1 negative": sn.IterateWhere("", -1, nil, func(int, int) bool { return true }),
		"store: ScanWhere from -1 negative":    second(sn.ScanWhere("", -1, 1, nil, nop)),
		"store: ScanWhere page of 0 matches":   second(sn.ScanWhere("", 0, 0, nil, nop)),
	} {
		if err == nil || err.Error() != want {
			t.Fatalf("refusal %v, want %q", err, want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

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
		c := &s.shards[0].state.Load().gens[0].cols.cols[j]
		if c.num.Width() != planes || c.presence != nil {
			t.Errorf("column %s: %d planes (want %d), presence vector kept = %v (want elided)",
				opts.Columns[j].Name, c.num.Width(), planes, c.presence != nil)
		}
	}
}

// benchColSchema is the benchmark's column schema, and benchColRows n
// values with rows of its distribution: status 500 for one row in twenty
// and 200 otherwise, bytes uniform below 2¹⁶.
var benchColSchema = []ColumnSpec{{Name: "status", Kind: ColUint64}, {Name: "bytes", Kind: ColUint64}}

func benchColRows(n int) ([]string, []Row) {
	rng := rand.New(rand.NewSource(1))
	vals, rows := make([]string, n), make([]Row, n)
	for i := range vals {
		status := uint64(200)
		if rng.Intn(20) == 0 {
			status = 500
		}
		vals[i] = fmt.Sprintf("api/v%03d", rng.Intn(512))
		rows[i] = Row{U64(status), U64(uint64(rng.Intn(1 << 16)))}
	}
	return vals, rows
}

// TestColumnSkewedPlaneBits is the space guard for a skewed plane: the
// benchmark's status column alone — one plane of ranks, about 5 % ones —
// over 16 384 rows keeps that plane RRR-coded, near its zero-order entropy
// (0.29 bits a row) rather than at one bit a row, and the whole column
// section, framing and dictionary included, costs at most 0.40 bits a row.
func TestColumnSkewedPlaneBits(t *testing.T) {
	const n = 1 << 14
	opts := testOpts()
	opts.Columns = benchColSchema[:1]
	s := mustOpen(t, t.TempDir(), opts)
	defer s.Close()
	vals, rows := benchColRows(n)
	for i := range rows {
		rows[i] = rows[i][:1]
	}
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got := float64(8*s.Generations()[0].ColFileBytes) / n
	t.Logf("%.3f bits/row", got)
	if got > 0.40 {
		t.Errorf("a 5 %% status column costs %.3f bits/row, want ≤ 0.40", got)
	}
}

// BenchmarkCompactColumnFeed prices the column side of compacting eight
// generations of 16 384 rows of the benchmark's schema into one: the
// victims' columns fed through genColFeeder into buildFrozenCols, as a
// compaction does beside its trie merge.
func BenchmarkCompactColumnFeed(b *testing.B) {
	const gens, per = 8, 1 << 14
	opts := testOpts()
	opts.Columns = benchColSchema
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	vals, rows := benchColRows(gens * per)
	for g := 0; g < gens; g++ {
		if err := s.AppendBatchRows(vals[g*per:(g+1)*per], rows[g*per:(g+1)*per]); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	victims := s.shards[0].state.Load().gens
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fc := buildFrozenCols(benchColSchema, gens*per, genColFeeder{victims}); fc.cols[0].m != gens*per {
			b.Fatalf("%d status cells, want %d", fc.cols[0].m, gens*per)
		}
	}
}

// BenchmarkCountWhere counts a two-predicate filter with no prefix over
// 4 × 16 384 flushed rows of the benchmark's columns, reporting ns a row.
func BenchmarkCountWhere(b *testing.B) {
	const gens, per = 4, 1 << 14
	opts := testOpts()
	opts.Columns = benchColSchema
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	vals, rows := benchColRows(gens * per)
	for g := 0; g < gens; g++ {
		if err := s.AppendBatchRows(vals[g*per:(g+1)*per], rows[g*per:(g+1)*per]); err != nil {
			b.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	sn := s.Snapshot()
	preds := []Pred{{Col: 0, Op: PredGE, Val: 500}, {Col: 1, Op: PredLT, Val: 1000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sn.CountWhere("", preds...)
		if err != nil {
			b.Fatal(err)
		}
		countWhereSink += c
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(gens*per), "ns/row")
}

// TestColumnDifferential: randomized appends with payloads held to the
// model, plain and on three shards, across flushes, a compaction, a
// mid-life crash and a reopen; its "encodings" subtests hold both frozen
// layouts of a numeric column to the model too.
func TestColumnDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randRow := func() model.Row {
		if rng.Intn(10) < 3 { // 30% no payload
			return nil
		}
		row := model.Row{{}, {}}
		if rng.Intn(5) != 0 {
			row[0] = model.Cell{Kind: model.KindU64, Num: uint64(rng.Intn(100))}
		}
		if rng.Intn(5) != 0 {
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			row[1] = model.Cell{Kind: model.KindBytes, Blob: string(b)}
		}
		return row
	}
	// Batches of 25, a command after each of the 150th, 300th and 450th
	// value (a flush), the 325th (a compaction) and the 375th (a crash
	// image: flushed floor + WAL tail, mid-life).
	var cmds []model.Cmd
	batch := model.Cmd{Op: model.OpBatch}
	for i := 1; i <= 600; i++ {
		v := [...]string{fmt.Sprintf("api/a%02d", rng.Intn(40)), fmt.Sprintf("api/b%02d", rng.Intn(20)), fmt.Sprintf("web/c%02d", rng.Intn(30))}[i%3]
		batch.Vals, batch.Rows = append(batch.Vals, v), append(batch.Rows, randRow())
		if i%25 == 0 {
			cmds, batch = append(cmds, batch), model.Cmd{Op: model.OpBatch}
		}
		switch i {
		case 150, 300, 450:
			cmds = append(cmds, model.Cmd{Op: model.OpFlush})
		case 325:
			cmds = append(cmds, model.Cmd{Op: model.OpCompact})
		case 375:
			cmds = append(cmds, model.Cmd{Op: model.OpCrash})
		}
	}
	cmds = append(cmds, model.Cmd{Op: model.OpReopen})
	for _, l := range []ModelLayout{{Name: "plain", Cols: true}, {Name: "sharded", Shards: 3, Cols: true}} {
		sys, m := l.Open(t), model.New(l.Schema()...)
		for _, c := range cmds {
			model.Apply(t, sys, m, c)
			if c.Op > model.OpAppend && c.Op != model.OpFlush {
				if err := sys.Check(m); err != nil {
					t.Fatalf("after %v: %v", c, err)
				}
			}
		}
		sys.Close()
	}
	t.Run("encodings", testColumnEncodings)
}

// testColumnEncodings drives one numeric column through both frozen
// layouts — raw planes and planes over dictionary ranks — and both
// presence forms, against the model: per case a plain and a
// two-shard store take three flushes (the middle one always raw-coded,
// so compaction merges victims of different layouts and different
// dictionaries), a compaction and a reopen, mapped and read onto the
// heap, every stage answering every operator against bounds below,
// inside, between and above the stored values.
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
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(len(tc.set))))
			opts := testOpts()
			opts.Columns = schema
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
			}
			lo, hi := slices.Min(tc.set), slices.Max(tc.set)
			mid := tc.set[len(tc.set)/2]
			var filters [][]model.Pred
			for _, b := range []uint64{0, lo - 1, lo, lo + 1, mid - 1, mid, mid + 1, 512, hi - 1, hi, hi + 1, maxU64} {
				for op := PredEQ; op <= PredGE; op++ {
					filters = append(filters, []model.Pred{{Col: 0, Op: uint8(op), Val: b}})
				}
			}
			for _, shards := range []int{0, 2} {
				dir := t.TempDir()
				s, err := OpenSharded(dir, &ShardedOptions{Shards: shards, Store: *opts})
				if err != nil {
					t.Fatal(err)
				}
				check := func(stage string) {
					t.Helper()
					if err := model.FromSlice(vals, modelRows(rows), model.KindU64).Filter(filters...).Diff(storeReader{model.Seq(s), s}); err != nil {
						t.Fatalf("%d shards, %s: %v", shards, stage, err)
					}
				}
				for i := range vals {
					if err := s.AppendRow(vals[i], rows[i]); err != nil {
						t.Fatal(err)
					}
					if i%seg == seg-1 {
						if err := s.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if gens := s.shards[0].state.Load().gens; shards == 0 {
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
				}
				check("flushed")
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				check("compacted")
				for _, heap := range []bool{false, true} {
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					if s, err = OpenSharded(dir, &ShardedOptions{Store: *testOpts()}); err != nil {
						t.Fatal(err)
					}
					if heap {
						serveFromHeap(t, s)
					}
					check(fmt.Sprintf("reopened heap=%v", heap))
				}
				s.Close()
			}
		})
	}
}
