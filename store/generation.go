package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	wavelettrie "repro"
)

// generation is one immutable slab of the sequence: a Frozen Wavelet
// Trie (the §3 fully-succinct encoding) persisted through the unified
// container, and the CRC-32 of its file as recorded in the manifest.
// Generations are read lock-free by any number of goroutines; they are
// replaced, never mutated.
type generation struct {
	id  uint64
	crc uint32
	ix  *wavelettrie.Frozen
	seg frozenSeg // ix as merged reads probe it
	// fileBytes is the on-disk size of the index file; region is the
	// read-only mapping backing ix when it was mmap-loaded (nil for
	// heap-decoded generations). The region is also pinned by ix itself,
	// so snapshots holding a compacted-away generation keep its mapping
	// alive after the file is unlinked (POSIX keeps mapped pages valid);
	// the finalizer unmaps once the last reference drops.
	fileBytes int
	region    *mmapRegion
	// cols is the generation's frozen column set (nil when the store has
	// no schema or the generation predates it — all cells NULL), with
	// its files' checksums and on-disk sizes. The set itself holds the
	// mappings it aliases.
	cols              *frozenCols
	colCRC, cdCRC     uint32
	colBytes, cdBytes int
}

// genCRC returns the manifest checksum of a generation image: CRC-32
// with a computed 0 mapped to 1, so a manifest entry with crc 0 matches
// no file and fails Open.
func genCRC(data []byte) uint32 {
	if c := crc32.ChecksumIEEE(data); c != 0 {
		return c
	}
	return 1
}

// loadGeneration reopens a generation file and cross-checks it against
// its manifest entry. The file's checksum must match the manifest's;
// the deep structural re-validation is then skipped (the bytes are
// exactly what a validated marshal produced).
//
// With useMmap, the file is mapped read-only and decoded zero-copy: the
// succinct components alias the mapping, so open cost is the CRC pass
// plus O(metadata) directory rebuilds, the bits page-fault in on
// demand, and the page cache is shared across processes serving the
// same directory. A checksum mismatch is a hard error either way; an
// mmap syscall failure just falls back to the heap path (the mapping is
// an optimization, never a requirement).
func loadGeneration(dir string, meta genMeta, schema []ColumnSpec, useMmap bool) (*generation, error) {
	name := genFileName(meta.id)
	path := filepath.Join(dir, name)
	g, err := loadGenIndex(name, path, meta, useMmap)
	if err != nil {
		return nil, err
	}
	if err := loadGenColumns(dir, g, meta, schema, useMmap); err != nil {
		return nil, err
	}
	return g, nil
}

// loadGenIndex loads the generation's frozen string index (the .wt
// file) — the original loadGeneration body; column loading is layered
// on top by loadGenColumns.
func loadGenIndex(name, path string, meta genMeta, useMmap bool) (*generation, error) {
	if useMmap && mmapSupported {
		if region, err := mapFile(path); err == nil {
			data := region.data
			crc := genCRC(data)
			if crc != meta.crc {
				return nil, fmt.Errorf("store: %s checksum %#x, manifest says %#x", name, crc, meta.crc)
			}
			ix, err := wavelettrie.LoadFrozenMapped(data, region)
			if err != nil {
				return nil, fmt.Errorf("store: %s: %w", name, err)
			}
			if ix.Len() != meta.n {
				return nil, fmt.Errorf("store: %s holds %d elements, manifest says %d", name, ix.Len(), meta.n)
			}
			return &generation{id: meta.id, crc: crc, ix: ix, seg: newFrozenSeg(ix), fileBytes: len(data), region: region}, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	crc := genCRC(data)
	if crc != meta.crc {
		return nil, fmt.Errorf("store: %s checksum %#x, manifest says %#x", name, crc, meta.crc)
	}
	ix, err := wavelettrie.LoadFrozenTrusted(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	if ix.Len() != meta.n {
		return nil, fmt.Errorf("store: %s holds %d elements, manifest says %d", name, ix.Len(), meta.n)
	}
	return &generation{id: meta.id, crc: crc, ix: ix, seg: newFrozenSeg(ix), fileBytes: len(data)}, nil
}

// readColFile reads one column-side file, mmap'd zero-copy when
// enabled, and verifies its checksum against the manifest. Column files
// are authoritative — predicate counts come straight off their bits — so
// any mismatch is a hard Open error, never a silent rebuild-or-ignore.
func readColFile(dir, name string, wantCRC uint32, useMmap bool) (data []byte, region *mmapRegion, err error) {
	path := filepath.Join(dir, name)
	if useMmap && mmapSupported {
		if r, err := mapFile(path); err == nil {
			if crc := genCRC(r.data); crc != wantCRC {
				return nil, nil, fmt.Errorf("store: %s checksum %#x, manifest says %#x", name, crc, wantCRC)
			}
			return r.data, r, nil
		}
	}
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if crc := genCRC(data); crc != wantCRC {
		return nil, nil, fmt.Errorf("store: %s checksum %#x, manifest says %#x", name, crc, wantCRC)
	}
	return data, nil, nil
}

// loadGenColumns attaches the generation's column files per its
// manifest entry: colCRC 0 means the generation predates the schema and
// serves all-NULL rows; otherwise the .col image (and the .cd offset
// directory, iff the schema has blob columns) must parse, checksum and
// cross-check against both the schema and the row count.
func loadGenColumns(dir string, g *generation, meta genMeta, schema []ColumnSpec, useMmap bool) error {
	if meta.colCRC == 0 {
		if meta.cdCRC != 0 {
			return fmt.Errorf("store: %s has an offset directory but no column file", genFileName(meta.id))
		}
		return nil
	}
	if len(schema) == 0 {
		return fmt.Errorf("store: %s has column files but the store has no schema", genFileName(meta.id))
	}
	name := colFileName(meta.id)
	data, region, err := readColFile(dir, name, meta.colCRC, useMmap)
	if err != nil {
		return err
	}
	fc, err := parseColumn(data, region != nil)
	if err != nil {
		return fmt.Errorf("store: %s: %w", name, err)
	}
	if fc.n != meta.n {
		return fmt.Errorf("store: %s covers %d rows, manifest says %d", name, fc.n, meta.n)
	}
	if len(fc.cols) != len(schema) {
		return fmt.Errorf("store: %s has %d columns, schema has %d", name, len(fc.cols), len(schema))
	}
	for i := range fc.cols {
		if k := fc.cols[i].kind; k != schema[i].Kind {
			return fmt.Errorf("store: %s column %d is %s, schema says %s", name, i, k, schema[i].Kind)
		}
	}
	fc.colRegion = region
	g.cols, g.colCRC, g.colBytes = fc, meta.colCRC, len(data)
	if !fc.needsColDir() {
		if meta.cdCRC != 0 {
			return fmt.Errorf("store: %s has an offset directory but no blob columns", name)
		}
		return nil
	}
	if meta.cdCRC == 0 {
		return fmt.Errorf("store: %s has blob columns but no offset directory", name)
	}
	cdName := colDirFileName(meta.id)
	cdData, cdRegion, err := readColFile(dir, cdName, meta.cdCRC, useMmap)
	if err != nil {
		return err
	}
	dirs, err := parseColDir(cdData, cdRegion != nil)
	if err != nil {
		return fmt.Errorf("store: %s: %w", cdName, err)
	}
	if err := bindColDir(fc, dirs); err != nil {
		return fmt.Errorf("store: %s: %w", cdName, err)
	}
	fc.cdRegion = cdRegion
	g.cdCRC, g.cdBytes = meta.cdCRC, len(cdData)
	return nil
}

// writeFileAtomic writes data to dir/name via a temp file, fsync and
// rename, then syncs the directory: a crash leaves either no file or a
// complete one.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// writeGenerationFrom persists ix as generation id: the Frozen encoding
// is written to the index file (temp file + fsync + rename). The rename is
// atomic, so a crash leaves no partial file — and the file is not
// reachable before a manifest references the generation; until then it is
// an orphan the next Open reclaims.
//
// ix comes from a structural freeze (flush: the sealed memtable's trie)
// or merge (compaction: the victims' tries) — §9; either way no element
// was decoded to make it and the input was never held as a []string.
// schema and feed carry the column side: when the store has a schema,
// the rows are laid out as column files (see colwrite.go) written before
// the index file — all three become reachable together once the manifest
// commits. feed may be nil (a generation of all-NULL rows).
func writeGenerationFrom(dir string, id uint64, schema []ColumnSpec, feed colFeeder, ix *wavelettrie.Frozen) (*generation, error) {
	data, err := ix.MarshalBinary()
	if err != nil {
		return nil, err
	}
	crc := genCRC(data)
	g := &generation{id: id, crc: crc, ix: ix, seg: newFrozenSeg(ix), fileBytes: len(data)}
	if len(schema) > 0 {
		g.cols = buildFrozenCols(schema, ix.Len(), feed)
		g.colBytes, g.cdBytes, g.colCRC, g.cdCRC, err = writeColumnFiles(dir, id, g.cols)
		if err != nil {
			return nil, err
		}
	}
	if err := writeFileAtomic(dir, genFileName(id), data); err != nil {
		return nil, err
	}
	return g, nil
}

// writeGeneration is writeGenerationFrom for an in-memory slice —
// convenience for tests and callers that already hold the sequence.
func writeGeneration(dir string, id uint64, seq []string) (*generation, error) {
	ix, err := wavelettrie.FreezeIterate(func(yield func(s string) bool) {
		for _, v := range seq {
			if !yield(v) {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return writeGenerationFrom(dir, id, nil, nil, ix)
}

// remapGeneration swaps a freshly written, heap-backed generation onto
// an mmap of its own file, releasing the heap copy: the generation then
// behaves exactly like one loaded at Open with mmap on (page-cache
// backed, shared across processes). Best effort — on any failure the
// heap-backed generation is returned unchanged.
func remapGeneration(dir string, g *generation) *generation {
	region, err := mapFile(filepath.Join(dir, genFileName(g.id)))
	if err != nil {
		return g
	}
	if genCRC(region.data) != g.crc {
		return g // foreign bytes? never trust them zero-copy
	}
	ix, err := wavelettrie.LoadFrozenMapped(region.data, region)
	if err != nil || ix.Len() != g.ix.Len() {
		return g
	}
	ng := *g
	ng.ix, ng.seg, ng.fileBytes, ng.region = ix, newFrozenSeg(ix), len(region.data), region
	return &ng
}

// removeGenFiles deletes a generation's index and column files (after a
// compaction commit supersedes them, or for orphans).
func removeGenFiles(dir string, id uint64) {
	os.Remove(filepath.Join(dir, genFileName(id)))
	removeColumnFiles(dir, id)
}
