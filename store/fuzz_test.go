package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

// FuzzParseWAL: arbitrary bytes must decode to a valid prefix or an
// error — never a panic — and the reported good offset must itself
// re-parse to the same records (truncation is idempotent).
func FuzzParseWAL(f *testing.F) {
	f.Add([]byte{})
	f.Add(logHeader(walMagic, walVersion))
	valid := logHeader(walMagic, walVersion)
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

// FuzzParseRouter: arbitrary bytes, read as the ROUTER log of a store of
// 1..MaxShards shards, must decode to a valid prefix or an error — never
// a panic — and every accepted record must hold ids of that store's
// shards only and re-encode byte for byte through the writer.
func FuzzParseRouter(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add(logHeader(routerMagic, routerVersion), uint16(1))
	for _, n := range []int{2, 5} {
		img := routerLogImage(f, f.TempDir(), n)
		last := walHeaderLen
		for pos := last; pos < len(img); pos += walRecHeaderLen + int(binary.LittleEndian.Uint32(img[pos:])) {
			last = pos
		}
		payload := img[last+walRecHeaderLen:]
		dirty := append([]byte(nil), payload...)
		dirty[len(dirty)-1] |= 0x80 // the last record's count leaves the top bit as padding
		count, k := binary.Uvarint(payload)
		mismatched := append(binary.AppendUvarint(nil, count+8), payload[k:]...)
		f.Add(img, uint16(n))
		f.Add(img, uint16(n+1))            // the same log under another shard count
		f.Add(img[:len(img)-3], uint16(n)) // torn tail
		f.Add(appendLogRecord(img[:last:last], dirty), uint16(n))
		f.Add(appendLogRecord(img[:last:last], mismatched), uint16(n))
	}

	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		shards := int(n)
		if shards < 1 || shards > MaxShards {
			return
		}
		recs, good, err := parseLog(data, routerMagic, routerVersion, validRouterRecord(shards))
		if err != nil {
			return
		}
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d outside [0,%d]", good, len(data))
		}
		for i, p := range recs {
			ids, ok := decodeRouterRecord(nil, p, shards)
			if !ok {
				t.Fatalf("record %d accepted but does not decode", i)
			}
			for _, id := range ids {
				if int(id) >= shards {
					t.Fatalf("record %d names shard %d of %d", i, id, shards)
				}
			}
			if enc := routerPayload(ids, shards); !bytes.Equal(enc, p) {
				t.Fatalf("record %d re-encodes to %x, file holds %x", i, enc, p)
			}
		}
	})
}

// routerLogImage creates a store of n shards in dir and returns its
// ROUTER log once closed: two records, 300 flushed values and 301 more
// that Close persists from the WAL tail.
func routerLogImage(tb testing.TB, dir string, n int) []byte {
	tb.Helper()
	s, err := OpenSharded(dir, &ShardedOptions{Shards: n, Store: Options{DisableAutoFlush: true}})
	if err != nil {
		tb.Fatal(err)
	}
	vals := workload.URLLog(601, int64(n), workload.DefaultURLConfig())
	for i, v := range vals {
		if i == 300 {
			if err := s.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
		if err := s.Append(v); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
	img, err := os.ReadFile(routerPath(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return img
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

// colImage hand-encodes a column image of one numeric, all-present column
// of m rows whose planes are all plain — the shapes the freeze never
// writes.
func colImage(m int, dict []uint64, width int, planes ...uint64) []byte {
	w := wire.NewWriter(colMagic, colVersion)
	w.Int(1)
	w.Int(m)
	w.Byte(byte(ColUint64))
	w.Byte(presAll)
	w.Words(dict)
	w.Byte(byte(width))
	for d := 0; d < width && d < 64; d++ {
		w.Byte(0) // a plain plane
	}
	w.Words(planes)
	return w.Bytes()
}

// rrrColImage is the column image of one numeric column of 1 000 rows,
// all present, holding 1 at rows 3, 403 and 803 and 0 elsewhere: one plane,
// RRR-coded, whose offset stream — three 6-bit fields in one word — ends
// the image.
func rrrColImage() []byte {
	rows := make([]Row, 1000)
	for i := range rows {
		rows[i] = Row{U64(0)}
		if i%400 == 3 {
			rows[i] = Row{U64(1)}
		}
	}
	img, _ := encodeColumns(buildFrozenCols([]ColumnSpec{{Name: "s", Kind: ColUint64}}, len(rows), fuzzColFeeder{rows}))
	return img
}

// lyingColImage is rrrColImage with its last word all ones: every offset
// past the C(63, 1) blocks of its class.
func lyingColImage() []byte {
	img := rrrColImage()
	for i := len(img) - 8; i < len(img); i++ {
		img[i] = 0xFF
	}
	return img
}

// badColImages are well-framed images parseColumn must refuse (each
// would read outside a table, misread every value or place a position
// out of range if loaded), by the text its error must carry. Four rows
// over the dictionary {5, 9, 12}: plane 0 sends row 3 right, plane 1 then
// reads rows 0 1 2 3.
var badColImages = []struct {
	want string
	img  []byte
}{
	{"dictionary not strictly increasing", colImage(4, []uint64{5, 12, 12}, 2, 0b1000, 0b0010)},
	{"1 bit planes over a dictionary of 3", colImage(4, []uint64{5, 9, 12}, 1, 0b1000)},
	{"rank outside its dictionary of 3", colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b1000)},
	{"3 plain plane words, want 2", colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b0010, 0)},
	{"65 bit planes", colImage(4, nil, 65)},
	{"out of range for class 1", lyingColImage()},
}

// TestParseColumnRefuses: the images above are refused by name, and the
// same frame with ranks inside the table reads back its values.
func TestParseColumnRefuses(t *testing.T) {
	for _, bad := range badColImages {
		if _, err := parseColumn(bad.img); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("parseColumn = %v, want a refusal naming %q", err, bad.want)
		}
	}
	fc, err := parseColumn(colImage(4, []uint64{5, 9, 12}, 2, 0b1000, 0b0010))
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
	if fc, err = parseColumn(rrrColImage()); err != nil {
		t.Fatal(err)
	}
	if got := fc.colRange(0, 0, 1000, 1, 1); got != 3 || fc.colValue(0, 403).U64() != 1 {
		t.Fatalf("the RRR plane reads %d ones and row 403 as %v, want 3 and 1", got, fc.colValue(0, 403))
	}
}

// FuzzParseColumn: arbitrary bytes must error or decode — never panic —
// and an accepted column image must be encode-stable: re-encoding the
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
	f.Add(dictSeed)      // dictionary-coded, presence kept
	f.Add(rrrColImage()) // an RRR-coded plane
	// (lyingColImage, its offsets corrupted, is among badColImages.)

	f.Fuzz(func(t *testing.T, data []byte) {
		fc, err := parseColumn(data)
		if err != nil {
			return
		}
		enc, _ := encodeColumns(fc)
		fc2, err := parseColumn(enc)
		if err != nil {
			t.Fatalf("re-encoded column image rejected: %v", err)
		}
		if fc2.n != fc.n || len(fc2.cols) != len(fc.cols) {
			t.Fatalf("re-parse changed shape: (%d,%d) -> (%d,%d)", fc.n, len(fc.cols), fc2.n, len(fc2.cols))
		}
		for i := range fc.cols {
			a, b := &fc.cols[i], &fc2.cols[i]
			if a.kind != b.kind || a.m != b.m || len(a.dict) != len(b.dict) || (a.kind == ColUint64 && a.num.Width() != b.num.Width()) {
				t.Fatalf("column %d changed across re-parse", i)
			}
			if a.kind != ColUint64 {
				continue // blob values live in the blob directory, unbound here
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
// and an accepted blob directory image must round-trip structurally: re-encoding
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
		dirs, err := parseColDir(data)
		if err != nil {
			return
		}
		dirs2, err := parseColDir(encodeDirs(dirs))
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

// FuzzParseGenFooter: arbitrary bytes must error or yield a footer —
// never panic — and an accepted footer must re-encode to the file's last
// genFooterSize bytes, byte for byte.
func FuzzParseGenFooter(f *testing.F) {
	ix, err := freezeSeq([]string{"api/a", "api/b", "", "api/a"})
	if err != nil {
		f.Fatal(err)
	}
	trie, err := ix.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	rows := []Row{{U64(7), Blob([]byte("alpha"))}, nil, {Null(), Blob(nil)}, {U64(1 << 40), Null()}}
	col, cd := encodeColumns(buildFrozenCols(colTestSchema(), len(rows), fuzzColFeeder{rows}))
	f.Add([]byte{})
	for _, img := range [][]byte{genImage([numSections][]byte{trie}), genImage([numSections][]byte{trie, col, cd})} {
		f.Add(img)
		f.Add(img[len(img)-genFooterSize:]) // the tail alone: sections out of bounds
		f.Add(img[:len(img)-1])             // torn
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		foot, err := parseGenFooter(data)
		if err != nil {
			return
		}
		if enc := encodeGenFooter(foot); !bytes.Equal(enc, data[len(data)-genFooterSize:]) {
			t.Fatalf("footer re-encodes to %x, file ends %x", enc, data[len(data)-genFooterSize:])
		}
	})
}

// appendLogRecord frames payload as one record onto an in-memory log
// image, for tests that forge logs.
func appendLogRecord(buf, payload []byte) []byte {
	start := len(buf)
	buf = append(append(buf, make([]byte, walRecHeaderLen)...), payload...)
	frameRecord(buf[start:])
	return buf
}

// parseWAL decodes a write-ahead-log image; see parseLog.
func parseWAL(data []byte) (records [][]byte, good int, err error) {
	return parseLog(data, walMagic, walVersion, validWALPayload)
}
