package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genImage is the generation file genFileParts lays out for sections.
func genImage(sections [numSections][]byte) []byte {
	return bytes.Join(genFileParts(sections), nil)
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
// GenInfo sizes are the file's and the sections' — for the generation a
// flush brought online and for the one decoded from the file's bytes
// read onto the heap.
func TestGenerationSectionsAreTodaysBytes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, colTestOpts())
	defer s.Close()
	vals, rows := colTestData(120)
	if err := s.AppendBatchRows(vals, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "gen-*")); len(names) != 1 {
		t.Fatalf("a flush left %d generation files %v, want 1", len(names), names)
	}
	heap, _, err := heapGenerations(dir)
	if err != nil {
		t.Fatal(err)
	}
	for arm, g := range map[string]*generation{"flushed": s.shards[0].state.Load().gens[0], "heap": heap[0]} {
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
				t.Fatalf("%s: section %d holds %d bytes, the encoder %d", arm, i, len(secs[i]), len(want))
			}
		}
		if g.fileBytes != len(data) || g.sections[secCols].n != len(col) || g.sections[secBlobs].n != len(cd) {
			t.Fatalf("%s: generation sizes (%d, %d, %d), file (%d, %d, %d)", arm,
				g.fileBytes, g.sections[secCols].n, g.sections[secBlobs].n, len(data), len(col), len(cd))
		}
	}
	info, g := s.Generations()[0], s.shards[0].state.Load().gens[0]
	if info.FileBytes != g.fileBytes || info.ColFileBytes != g.sections[secCols].n || info.ColDirFileBytes != g.sections[secBlobs].n {
		t.Fatalf("GenInfo sizes (%d, %d, %d), generation (%d, %d, %d)", info.FileBytes, info.ColFileBytes, info.ColDirFileBytes,
			g.fileBytes, g.sections[secCols].n, g.sections[secBlobs].n)
	}
}

// TestGenFooterRefused: a generation file whose footer is torn, places a
// section out of bounds, over another or off alignment, or lacks the
// trie — with the manifest checksum moved to match, so only the footer
// check stands in the way — fails Open, and the decode of the file's
// bytes read onto the heap; a flipped byte in any section or in the
// footer fails both on the checksum. Either way the directory is left
// byte for byte as it was.
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
			s, err := Open(dir, colTestOpts())
			if err == nil {
				s.Close()
				t.Fatal("Open accepted the file")
			}
			if !strings.Contains(err.Error(), tc.wantText) {
				t.Fatalf("Open error %q does not name %q", err, tc.wantText)
			}
			if _, _, err := heapGenerations(dir); err == nil || !strings.Contains(err.Error(), tc.wantText) {
				t.Fatalf("heap decode: error %v does not name %q", err, tc.wantText)
			}
			after := dirImage(t, dir)
			if len(after) != len(before) {
				t.Fatal("Open changed the directory listing")
			}
			for name, img := range before {
				if after[name] != img {
					t.Fatalf("Open changed %s", name)
				}
			}
		})
	}
}

// TestFlushMapsColumns: a flushed generation is served from a mapping of
// its file at once — its trie and its column planes and blob payloads
// alias that one mapping, as after a reopen — and so is the generation
// a compaction of two flushed ones writes.
func TestFlushMapsColumns(t *testing.T) {
	if !mmapSupported {
		t.Skip("mmap unsupported on this platform")
	}
	s := mustOpen(t, t.TempDir(), colTestOpts())
	defer s.Close()
	vals, rows := colTestData(300)
	mapped := func(stage string) {
		t.Helper()
		if !s.Generations()[0].Mmapped {
			t.Fatalf("%s generation not mapped", stage)
		}
		g := s.shards[0].state.Load().gens[0]
		if g.region == nil || g.cols == nil || g.cols.region != g.region {
			t.Fatalf("the %s generation's column set does not hold its mapping", stage)
		}
		checkAliases(t, g, g.region.data)
	}
	if err := s.AppendBatchRows(vals[:150], rows[:150]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	mapped("flushed")
	if err := s.AppendBatchRows(vals[150:], rows[150:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Generations()); n != 1 {
		t.Fatalf("compaction left %d generations, want 1", n)
	}
	mapped("compacted")
	CheckModel(t, s.Snapshot(), vals, rows, ModelSchema...)
}
