package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"
)

// genImage is the generation file genFileParts lays out for sections.
func genImage(sections [numSections][]byte) []byte {
	parts, _ := genFileParts(sections)
	return bytes.Join(parts, nil)
}

// genFileSections reads the generation file at path and cuts it into
// its sections at its footer.
func genFileSections(t *testing.T, path string) ([]byte, genFooter, [numSections][]byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	foot, err := parseGenFooter(data)
	if err != nil {
		t.Fatal(err)
	}
	var secs [numSections][]byte
	for i, s := range foot {
		if s.n > 0 {
			secs[i] = data[s.off : s.off+s.n]
		}
	}
	return data, foot, secs
}

// flushedColumnGen fills dir with a closed store holding one flushed
// generation of colTestData rows — a numeric and a blob column — and
// returns the path of its file.
func flushedColumnGen(t *testing.T, dir string) string {
	t.Helper()
	s := mustOpen(t, dir, colTestOpts())
	vals, rows := colTestData(120)
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	id := s.Generations()[0].ID
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, genFileName(id))
}

// dirImage reads every file directly under dir.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(data)
	}
	return img
}

// TestGenerationSectionsAreTodaysBytes: a columnar generation with a blob
// column is one file whose sections are the trie container and the two
// column images byte for byte, as the encoders produce them, and whose
// GenInfo sizes are the file's and the sections'.
func TestGenerationSectionsAreTodaysBytes(t *testing.T) {
	for _, noMmap := range []bool{false, true} {
		dir := t.TempDir()
		opts := colTestOpts()
		opts.NoMmap = noMmap
		s := mustOpen(t, dir, opts)
		vals, rows := colTestData(120)
		if err := s.AppendBatchRows(vals, rows); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		g := s.shards[0].state.Load().gens[0]
		trie, err := g.ix.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		col, cd := encodeColumns(g.cols)
		if cd == nil {
			t.Fatal("the test schema's blob column wrote no blob directory")
		}
		data, _, secs := genFileSections(t, filepath.Join(dir, genFileName(g.id)))
		for i, want := range [numSections][]byte{trie, col, cd} {
			if !bytes.Equal(secs[i], want) {
				t.Fatalf("NoMmap=%v: section %d holds %d bytes, the encoder %d", noMmap, i, len(secs[i]), len(want))
			}
		}
		info := s.Generations()[0]
		if info.FileBytes != len(data) || info.ColFileBytes != len(col) || info.ColDirFileBytes != len(cd) {
			t.Fatalf("NoMmap=%v: GenInfo sizes (%d, %d, %d), file (%d, %d, %d)", noMmap,
				info.FileBytes, info.ColFileBytes, info.ColDirFileBytes, len(data), len(col), len(cd))
		}
		if names, _ := filepath.Glob(filepath.Join(dir, "gen-*")); len(names) != 1 {
			t.Fatalf("NoMmap=%v: a flush left %d generation files %v, want 1", noMmap, len(names), names)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGenFooterRefused: a generation file whose footer is torn, places a
// section out of bounds, over another or off alignment, or lacks the
// trie — with the manifest checksum moved to match, so only the footer
// check stands in the way — fails Open in both load paths; a flipped
// byte in any section or in the footer fails it on the checksum. Either
// way the directory is left byte for byte as it was.
func TestGenFooterRefused(t *testing.T) {
	type mutation func(data []byte, foot genFooter) []byte
	refoot := func(edit func(f *genFooter)) mutation {
		return func(data []byte, foot genFooter) []byte {
			edit(&foot)
			body := data[:len(data)-genFooterSize]
			return append(append([]byte(nil), body...), encodeGenFooter(foot)...)
		}
	}
	flip := func(at func(foot genFooter, size int) int) mutation {
		return func(data []byte, foot genFooter) []byte {
			out := append([]byte(nil), data...)
			out[at(foot, len(data))] ^= 0x10
			return out
		}
	}
	mid := func(sec int) func(genFooter, int) int {
		return func(f genFooter, _ int) int { return f[sec].off + f[sec].n/2 }
	}
	for _, tc := range []struct {
		name     string
		mutate   mutation
		moveCRC  bool
		wantText string
	}{
		{"torn footer", func(data []byte, _ genFooter) []byte { return data[:len(data)-genFooterSize/2] }, true, "footer"},
		{"no footer", func(data []byte, _ genFooter) []byte { return data[:genFooterSize-1] }, true, "no footer"},
		{"footer version", func(data []byte, _ genFooter) []byte {
			out := append([]byte(nil), data...)
			out[len(out)-8]++
			return out
		}, true, "footer version 2"},
		{"section out of bounds", refoot(func(f *genFooter) { f[secBlobs].n += 64 }), true, "outside"},
		{"section past the body", refoot(func(f *genFooter) { f[secBlobs].off += 1 << 40 }), true, "outside"},
		{"sections overlap", refoot(func(f *genFooter) { f[secCols].off = 8 }), true, "overlaps"},
		{"misaligned section", refoot(func(f *genFooter) { f[secCols].off += 4; f[secCols].n -= 4 }), true, "misaligned"},
		{"empty section", refoot(func(f *genFooter) { f[secBlobs].n = 0 }), true, "empty"},
		{"no trie", refoot(func(f *genFooter) { f[secTrie].off, f[secTrie].n = 0, 0 }), true, "no trie section"},
		{"flip in trie", flip(mid(secTrie)), false, "checksum"},
		{"flip in columns", flip(mid(secCols)), false, "checksum"},
		{"flip in blobs", flip(mid(secBlobs)), false, "checksum"},
		{"flip in footer", flip(func(_ genFooter, size int) int { return size - genFooterSize + 20 }), false, "checksum"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := flushedColumnGen(t, dir)
			data, foot, _ := genFileSections(t, path)
			bad := tc.mutate(data, foot)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.moveCRC {
				raw, err := os.ReadFile(filepath.Join(dir, manifestName))
				if err != nil {
					t.Fatal(err)
				}
				m, err := parseManifest(raw)
				if err != nil {
					t.Fatal(err)
				}
				m.gens[0].crc = genCRC(bad)
				if err := writeManifest(dir, m); err != nil {
					t.Fatal(err)
				}
			}
			before := dirImage(t, dir)
			for _, noMmap := range []bool{false, true} {
				opts := colTestOpts()
				opts.NoMmap = noMmap
				s, err := Open(dir, opts)
				if err == nil {
					s.Close()
					t.Fatalf("Open(NoMmap=%v) accepted the file", noMmap)
				}
				if !strings.Contains(err.Error(), tc.wantText) {
					t.Fatalf("Open(NoMmap=%v) error %q does not name %q", noMmap, err, tc.wantText)
				}
				after := dirImage(t, dir)
				if len(after) != len(before) {
					t.Fatalf("Open(NoMmap=%v) changed the directory listing", noMmap)
				}
				for name, img := range before {
					if after[name] != img {
						t.Fatalf("Open(NoMmap=%v) changed %s", noMmap, name)
					}
				}
			}
		})
	}
}

// TestFlushMapsColumns: with mmap on, a flushed generation is served
// from a mapping of its file at once — its trie and its column planes
// and blob payloads alias that one mapping, as after a reopen.
func TestFlushMapsColumns(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	s := mustOpen(t, t.TempDir(), colTestOpts())
	defer s.Close()
	vals, rows := colTestData(300)
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if !s.Generations()[0].Mmapped {
		t.Fatal("flushed generation not mapped")
	}
	g := s.shards[0].state.Load().gens[0]
	if g.region == nil || g.cols == nil || g.cols.region != g.region {
		t.Fatal("the column set does not hold the generation's mapping")
	}
	lo := uintptr(unsafe.Pointer(&g.region.data[0]))
	inside := func(p unsafe.Pointer) bool {
		return lo <= uintptr(p) && uintptr(p) < lo+uintptr(len(g.region.data))
	}
	for i := range g.cols.cols {
		c := &g.cols.cols[i]
		switch {
		case c.kind == ColUint64 && len(c.num.Words()) > 0:
			if !inside(unsafe.Pointer(&c.num.Words()[0])) {
				t.Fatalf("column %d planes are on the heap", i)
			}
		case c.kind == ColBytes && len(c.payload) > 0:
			if !inside(unsafe.Pointer(&c.payload[0])) {
				t.Fatalf("column %d payload is on the heap", i)
			}
		default:
			t.Fatalf("column %d holds no planes or payload to check", i)
		}
	}
	checkColumns(t, s.Snapshot(), vals, rows)
}
