package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The column image in testdata/cols_v3.col was written when column image
// version 3 (a kind byte per plane, skewed planes RRR-coded) was
// introduced, from goldenColSchema and goldenColRows; testdata/cols_v2.cd
// is the blob directory, which has not changed since the commit before
// the plane layout moved into internal/wavelettree. They pin the column
// image (WCLM version 3) and the blob directory (WCDR version 1) byte for
// byte — the column and blob directory sections of a generation file.
// testdata/cols_v2.col is the version 2 image that commit wrote for the
// same rows without the skew column, every plane plain:
// TestOlderFormatsRefused holds it as a refused generation.
const (
	goldenColFile   = "cols_v3.col"
	goldenCdFile    = "cols_v2.cd"
	goldenColV2File = "cols_v2.col"
)

// goldenColSchema covers every shape a frozen column takes.
func goldenColSchema() []ColumnSpec {
	return []ColumnSpec{
		{Name: "raw16", Kind: ColUint64}, // 16 raw planes, every cell present: presence elided
		{Name: "raw64", Kind: ColUint64}, // 64 raw planes, presence vector kept
		{Name: "dict", Kind: ColUint64},  // 2 planes over a 4-value dictionary, presence vector kept
		{Name: "const", Kind: ColUint64}, // one distinct value: a dictionary of one and no planes
		{Name: "null", Kind: ColUint64},  // every cell NULL
		{Name: "blob", Kind: ColBytes},   // offsets and payload in the .cd file, presence vector kept
		{Name: "skew", Kind: ColUint64},  // one raw plane, one row in twenty set: RRR-coded
	}
}

// goldenColRows is the fixed-seed payload the golden files hold: 3 001
// rows, so the planes straddle word, rank-superblock and RRR superblock
// boundaries.
func goldenColRows() []Row {
	rng := rand.New(rand.NewSource(25))
	wide := []uint64{3, 77, 1 << 40, math.MaxUint64}
	rows := make([]Row, 3001)
	for i := range rows {
		row := Row{U64(uint64(rng.Intn(1 << 16))), Null(), Null(), U64(7), Null(), Null()}
		if rng.Intn(5) != 0 {
			row[1] = U64(rng.Uint64())
		}
		if rng.Intn(4) != 0 {
			row[2] = U64(wide[rng.Intn(len(wide))])
		}
		if rng.Intn(3) != 0 {
			b := make([]byte, rng.Intn(9))
			rng.Read(b)
			row[5] = Blob(b)
		}
		if i%20 == 7 { // drawn from no generator, so the older columns keep their rows
			row = append(row, U64(1))
		} else {
			row = append(row, U64(0))
		}
		rows[i] = row
	}
	return rows
}

// TestColumnGolden: today's freeze encodes the golden rows to the golden
// bytes, and both images, as the sections of a generation file, decode —
// from a mapping and from the file's bytes read onto the heap — to
// columns that answer
// colValue, colRange and colPresent like the flat rows.
func TestColumnGolden(t *testing.T) {
	schema, rows := goldenColSchema(), goldenColRows()
	colData, err := os.ReadFile(filepath.Join("testdata", goldenColFile))
	if err != nil {
		t.Fatal(err)
	}
	cdData, err := os.ReadFile(filepath.Join("testdata", goldenCdFile))
	if err != nil {
		t.Fatal(err)
	}
	col, cd := encodeColumns(buildFrozenCols(schema, len(rows), fuzzColFeeder{rows}))
	if !bytes.Equal(col, colData) || !bytes.Equal(cd, cdData) {
		t.Fatalf("encoded images (%d, %d bytes) differ from the golden files (%d, %d bytes)", len(col), len(cd), len(colData), len(cdData))
	}

	// The golden images as the column sections of a generation file, loaded
	// as Open loads it and decoded from its bytes read onto the heap.
	ix, err := freezeSeq(make([]string, len(rows)))
	if err != nil {
		t.Fatal(err)
	}
	trie, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	parts := genFileParts([numSections][]byte{trie, colData, cdData})
	meta := genMeta{id: 2, n: len(rows), crc: genCRC(parts...)}
	if err := writeFileAtomic(dir, genFileName(meta.id), parts...); err != nil {
		t.Fatal(err)
	}
	g, err := loadGeneration(dir, meta, schema)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && g.cols.region == nil {
		t.Fatal("golden sections were not mapped")
	}
	checkColsAgainstRows(t, g.cols, schema, rows)
	if g, err = decodeGeneration(meta, schema, bytes.Join(parts, nil), nil); err != nil {
		t.Fatal(err)
	}
	checkColsAgainstRows(t, g.cols, schema, rows)
}

// checkColsAgainstRows diffs a decoded column set against flat rows: every
// cell, present counts over sampled intervals, and — on numeric columns —
// range counts over intervals that include the extremes, single values,
// empty ranges and power-of-two node boundaries.
func checkColsAgainstRows(t *testing.T, fc *frozenCols, schema []ColumnSpec, rows []Row) {
	t.Helper()
	n := len(rows)
	rng := rand.New(rand.NewSource(1))
	spans := [][2]int{{0, n}, {0, 0}, {0, 1}, {63, 65}, {511, 1025}, {n - 1, n}, {n / 3, 2 * n / 3}}
	for i := 0; i < 8; i++ {
		l := rng.Intn(n + 1)
		spans = append(spans, [2]int{l, l + rng.Intn(n+1-l)})
	}
	for col := range schema {
		for pos, row := range rows {
			if got := fc.colValue(col, pos); !cellEq(got, row[col]) {
				t.Fatalf("column %s: colValue(%d) = %v, want %v", schema[col].Name, pos, got, row[col])
			}
		}
		for _, sp := range spans {
			want := 0
			for _, row := range rows[sp[0]:sp[1]] {
				if !row[col].IsNull() {
					want++
				}
			}
			if got := fc.colPresent(col, sp[0], sp[1]); got != want {
				t.Fatalf("column %s: colPresent(%d, %d) = %d, want %d", schema[col].Name, sp[0], sp[1], got, want)
			}
		}
		if schema[col].Kind != ColUint64 {
			continue
		}
		bounds := [][2]uint64{
			{0, math.MaxUint64}, {0, 0}, {7, 7}, {3, 77}, {78, 1<<40 - 1}, {1 << 40, math.MaxUint64},
			{math.MaxUint64, math.MaxUint64}, {1 << 15, 1<<16 - 1}, {0, 1<<15 - 1}, {1 << 63, math.MaxUint64}, {9, 8},
		}
		for i := 0; i < 6; i++ {
			lo := rows[rng.Intn(n)][col].U64()
			bounds = append(bounds, [2]uint64{lo, lo + rng.Uint64()>>uint(rng.Intn(64))})
		}
		for _, sp := range spans {
			for _, b := range bounds {
				want := 0
				for _, row := range rows[sp[0]:sp[1]] {
					if v := row[col]; !v.IsNull() && b[0] <= v.U64() && v.U64() <= b[1] {
						want++
					}
				}
				if got := fc.colRange(col, sp[0], sp[1], b[0], b[1]); got != want {
					t.Fatalf("column %s: colRange(%d, %d, %d, %d) = %d, want %d", schema[col].Name, sp[0], sp[1], b[0], b[1], got, want)
				}
			}
		}
	}
}
