package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
)

// FuzzParseWAL: arbitrary bytes must decode to a valid prefix or an
// error — never a panic — and the reported good offset must itself
// re-parse to the same records (truncation is idempotent).
func FuzzParseWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add(logHeader(walMagic))
	valid := logHeader(walMagic)
	for _, p := range []string{"", "a", "host00.example/a1", "longer payload with spaces"} {
		valid, _ = appendWALRecord(valid, p, uint64(len(p)), len(p)%2 == 0, nil)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(append(append([]byte(nil), valid...), 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, err := parseWAL(data)
		if err != nil {
			return
		}
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		recs2, good2, err2 := parseWAL(data[:good])
		if err2 != nil || good2 != good || len(recs2) != len(recs) {
			t.Fatalf("truncation not idempotent: (%d recs, %d) -> (%d recs, %d, %v)",
				len(recs), good, len(recs2), good2, err2)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], recs2[i]) {
				t.Fatalf("record %d changed across re-parse", i)
			}
		}
	})
}

// FuzzParseManifest: arbitrary bytes must error or decode — never panic
// — and a decoded manifest must re-encode to a byte-identical image.
func FuzzParseManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeManifest(manifest{nextID: 2, walID: 1}))
	f.Add(encodeManifest(manifest{
		nextID: 9,
		walID:  7,
		gens:   []genMeta{{id: 2, n: 10}, {id: 5, n: 4}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if enc := encodeManifest(m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted manifest does not round-trip: %+v", m)
		}
	})
}

// FuzzParseShards: arbitrary bytes must error or decode — never panic —
// and a decoded SHARDS manifest must re-encode byte-identically.
func FuzzParseShards(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeShards(shardsManifest{shards: 4, partitioner: "fnv1a"}))
	f.Add(encodeShards(shardsManifest{shards: MaxShards, partitioner: "custom-name"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseShards(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeShards(m), data) {
			t.Fatalf("accepted SHARDS manifest does not round-trip: %+v", m)
		}
	})
}

// fuzzColFeeder streams a flat []Row for the column fuzz seeds — the
// oracle shape the differential tests use.
type fuzzColFeeder struct{ rows []Row }

func (f fuzzColFeeder) feedColumn(col int, fn func(pos int, v Value) bool) {
	for pos, row := range f.rows {
		if col < len(row) && !row[col].IsNull() {
			if !fn(pos, row[col]) {
				return
			}
		}
	}
}

// colImage hand-encodes a .col image of one numeric, all-present column
// of m rows — the shapes the freeze never writes.
func colImage(m int, dict []uint64, width int, planes ...uint64) []byte {
	w := wire.NewWriter(colMagic, colVersion)
	w.Int(1)
	w.Int(m)
	w.Byte(byte(ColUint64))
	w.Byte(presAll)
	w.Words(dict)
	w.Byte(byte(width))
	w.Words(planes)
	return w.Bytes()
}

// badColImages are well-framed version 2 images parseColumn must refuse
// (each would read outside a table or misread every value if loaded),
// by the text its error must carry. Four rows over the dictionary
// {5, 9, 12}: plane 0 sends row 3 right, plane 1 then reads rows 0 1 2 3.
var badColImages = []struct {
	want string
	img  []byte
}{
	{"dictionary not strictly increasing", colImage(4, []uint64{5, 12, 12}, 2, 0b1000, 0b0010)},
	{"1 bit planes over a dictionary of 3", colImage(4, []uint64{5, 9, 12}, 1, 0b1000)},
	{"rank outside its dictionary of 3", colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b1000)},
	{"3 plane words, want 2", colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b0010, 0)},
	{"65 bit planes", colImage(4, nil, 65)},
}

// TestParseColumnRefuses: the images above are refused by name, and the
// same frame with ranks inside the table reads back its values.
func TestParseColumnRefuses(t *testing.T) {
	for _, bad := range badColImages {
		if _, err := parseColumn(bad.img, false); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("parseColumn = %v, want a refusal naming %q", err, bad.want)
		}
	}
	fc, err := parseColumn(colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b0010), false)
	if err != nil {
		t.Fatal(err)
	}
	for pos, want := range []uint64{5, 9, 5, 12} {
		if got := fc.colValue(0, pos); got.U64() != want {
			t.Fatalf("cell %d = %v, want %d", pos, got, want)
		}
	}
	if got := fc.colRange(0, 0, 4, 6, 12); got != 2 {
		t.Fatalf("colRange [6,12] = %d, want 2", got)
	}
}

// FuzzParseColumn: arbitrary bytes must error or decode — never panic —
// and an accepted .col image must be encode-stable: re-encoding the
// decoded columns and decoding again yields the same shape and the same
// numeric values (byte identity is too strong: word-alignment padding
// admits nonzero garbage the reader skips). Whatever decodes must also
// answer cell reads and range counts without panicking, the same from
// both decodings.
func FuzzParseColumn(f *testing.F) {
	schema := []ColumnSpec{{Name: "score", Kind: ColUint64}, {Name: "meta", Kind: ColBytes}}
	rows := []Row{
		{U64(7), Blob([]byte("alpha"))},
		nil,
		{Null(), Blob([]byte(""))},
		{U64(1 << 40), Null()},
	}
	colSeed, _ := encodeColumns(buildFrozenCols(schema, len(rows), fuzzColFeeder{rows}))
	allNull, _ := encodeColumns(buildFrozenCols(schema, 6, nil))
	empty, _ := encodeColumns(buildFrozenCols(nil, 3, nil))
	f.Add([]byte{})
	f.Add(colSeed)
	f.Add(allNull)
	f.Add(empty)
	f.Add(colSeed[:len(colSeed)-2]) // torn tail
	for _, bad := range badColImages {
		f.Add(bad.img)
	}
	wideRows := []Row{{U64(1 << 60)}, {U64(3)}, nil, {U64(1 << 60)}, {U64(3)}, {U64(77)}}
	dictSeed, _ := encodeColumns(buildFrozenCols(schema[:1], len(wideRows), fuzzColFeeder{wideRows}))
	f.Add(dictSeed) // dictionary-coded, presence kept

	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := parseColumn(data, false)
		if err != nil {
			return
		}
		enc, _ := encodeColumns(fc)
		fc2, err := parseColumn(enc, false)
		if err != nil {
			t.Fatalf("re-encoded column image rejected: %v", err)
		}
		if fc2.n != fc.n || len(fc2.cols) != len(fc.cols) {
			t.Fatalf("re-parse changed shape: (%d,%d) -> (%d,%d)", fc.n, len(fc.cols), fc2.n, len(fc2.cols))
		}
		for i := range fc.cols {
			a, b := &fc.cols[i], &fc2.cols[i]
			if a.kind != b.kind || a.width != b.width || a.m != b.m || len(a.dict) != len(b.dict) {
				t.Fatalf("column %d changed across re-parse", i)
			}
			if a.kind != ColUint64 {
				continue // blob values live in the .cd file, unbound here
			}
			// Spot-check numeric values over a bounded prefix of positions.
			limit := fc.n
			if limit > 1024 {
				limit = 1024
			}
			for pos := 0; pos < limit; pos++ {
				va, vb := fc.colValue(i, pos), fc2.colValue(i, pos)
				if va.IsNull() != vb.IsNull() || (!va.IsNull() && va.U64() != vb.U64()) {
					t.Fatalf("column %d pos %d: %v != %v", i, pos, va, vb)
				}
				lo, hi := va.U64()/2, va.U64()+uint64(pos)
				if ra, rb := fc.colRange(i, pos/2, fc.n, lo, hi), fc2.colRange(i, pos/2, fc.n, lo, hi); ra != rb {
					t.Fatalf("column %d colRange(%d, %d, %d, %d): %d != %d", i, pos/2, fc.n, lo, hi, ra, rb)
				}
			}
			if pa, pb := fc.colPresent(i, 0, fc.n), fc2.colPresent(i, 0, fc.n); pa != pb || pa != a.m {
				t.Fatalf("column %d colPresent: %d, %d, m %d", i, pa, pb, a.m)
			}
		}
	})
}

// FuzzParseColDir: arbitrary bytes must error or decode — never panic —
// and an accepted .cd image must round-trip structurally: re-encoding
// the decoded directories and decoding again yields identical offsets
// and payloads.
func FuzzParseColDir(f *testing.F) {
	schema := []ColumnSpec{{Name: "a", Kind: ColBytes}, {Name: "b", Kind: ColBytes}}
	rows := []Row{
		{Blob([]byte("x")), Null()},
		{Blob([]byte("yyyy")), Blob([]byte("z"))},
	}
	_, cdSeed := encodeColumns(buildFrozenCols(schema, len(rows), fuzzColFeeder{rows}))
	f.Add([]byte{})
	f.Add(cdSeed)
	f.Add(cdSeed[:len(cdSeed)-1]) // torn tail

	encodeDirs := func(dirs []colDirEntry) []byte {
		w := wire.NewWriter(colDirMagic, colDirVersion)
		w.Int(len(dirs))
		for _, d := range dirs {
			w.Words(d.offs)
			w.Int(len(d.payload))
			w.Words(packBytes(d.payload))
		}
		return w.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dirs, err := parseColDir(data, false)
		if err != nil {
			return
		}
		dirs2, err := parseColDir(encodeDirs(dirs), false)
		if err != nil {
			t.Fatalf("re-encoded offset directory rejected: %v", err)
		}
		if len(dirs2) != len(dirs) {
			t.Fatalf("re-parse changed entry count: %d -> %d", len(dirs), len(dirs2))
		}
		for i := range dirs {
			if !reflect.DeepEqual(dirs[i].offs, dirs2[i].offs) || !bytes.Equal(dirs[i].payload, dirs2[i].payload) {
				t.Fatalf("entry %d changed across re-parse", i)
			}
		}
	})
}
