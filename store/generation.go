package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	wavelettrie "repro"
)

// generation is one immutable slab of the sequence: a Frozen Wavelet
// Trie (the §3 fully-succinct encoding) and its frozen column set,
// persisted together as the sections of one file, and the CRC-32 of that
// file as recorded in the manifest. Every generation a shard serves was
// made by loadGeneration from its file, whether Open found it or a flush
// or compaction just wrote it. Generations are read lock-free by any
// number of goroutines; they are replaced, never mutated.
type generation struct {
	id  uint64
	crc uint32
	ix  *wavelettrie.Frozen
	seg frozenSeg // ix as merged reads probe it
	// fileBytes is the on-disk size of the generation file, sections its
	// footer (where each section lies); region is the read-only
	// mapping backing ix and cols when the file was mapped (nil where it
	// was read onto the heap). The region is also pinned by ix and by
	// cols, so snapshots holding a compacted-away generation keep its
	// mapping alive after the file is unlinked (POSIX keeps mapped pages
	// valid); the finalizer unmaps once the last reference drops.
	fileBytes int
	sections  genFooter
	region    *mmapRegion
	// cols is the generation's frozen column set: nil when the file has
	// no column section (the store has no schema, or the generation
	// predates it — all cells NULL).
	cols *frozenCols
}

// A generation file, gen-<id>.wt, is its sections, each starting at an
// 8-byte-aligned offset (zero padding between them) so that the words
// inside decode zero-copy from a mapping, then a fixed footer:
//
//	trie     the WVLT container of the generation's Frozen (persist.go)
//	columns  the WCLM column image (column.go); present when the store
//	         pins a schema
//	blobs    the WCDR blob offset directory; present when the schema has
//	         blob columns
//	footer   per section its offset and length (u64 each; 0, 0 when
//	         absent), then a u32 version and a u32 magic
//
// The manifest's CRC covers the whole file, footer included; the footer
// carries no checksum of its own.
const (
	genFooterMagic   = 0x4E454757 // "WGEN" little-endian
	genFooterVersion = 1
	genFooterSize    = 16*numSections + 8
)

// The sections of a generation file, in file order.
const (
	secTrie = iota
	secCols
	secBlobs
	numSections
)

// genFooter locates a generation file's sections; an absent section is
// {0, 0}.
type genFooter [numSections]struct{ off, n int }

// encodeGenFooter renders the footer that closes a generation file.
func encodeGenFooter(f genFooter) []byte {
	b := make([]byte, 0, genFooterSize)
	for _, s := range f {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.off))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.n))
	}
	b = binary.LittleEndian.AppendUint32(b, genFooterVersion)
	return binary.LittleEndian.AppendUint32(b, genFooterMagic)
}

// parseGenFooter reads the footer at the end of a generation file image
// and checks that it places the trie and every other present section
// inside the body, in file order, without overlap and 8-byte aligned.
// Arbitrary input must error, never panic — this function is fuzzed.
func parseGenFooter(file []byte) (genFooter, error) {
	var f genFooter
	if len(file) < genFooterSize {
		return f, fmt.Errorf("store: generation file of %d bytes has no footer", len(file))
	}
	body := len(file) - genFooterSize
	foot := file[body:]
	if m := binary.LittleEndian.Uint32(foot[genFooterSize-4:]); m != genFooterMagic {
		return f, fmt.Errorf("store: generation footer has bad magic %#x, want %#x", m, genFooterMagic)
	}
	if v := binary.LittleEndian.Uint32(foot[genFooterSize-8:]); v != genFooterVersion {
		return f, fmt.Errorf("store: unsupported generation footer version %d, want %d", v, genFooterVersion)
	}
	end := uint64(0) // where the previous present section ends
	for i := range f {
		off := binary.LittleEndian.Uint64(foot[16*i:])
		n := binary.LittleEndian.Uint64(foot[16*i+8:])
		switch {
		case n == 0 && i == secTrie:
			return f, errors.New("store: generation footer has no trie section")
		case off == 0 && n == 0:
			continue // absent
		case n == 0:
			return f, fmt.Errorf("store: generation footer section %d is empty", i)
		case off%8 != 0:
			return f, fmt.Errorf("store: generation footer section %d at misaligned offset %d", i, off)
		case off < end:
			return f, fmt.Errorf("store: generation footer section %d at %d overlaps the one before (ends %d)", i, off, end)
		case off > uint64(body) || n > uint64(body)-off:
			return f, fmt.Errorf("store: generation footer section %d [%d, +%d) outside the %d-byte body", i, off, n, body)
		}
		f[i].off, f[i].n, end = int(off), int(n), off+n
	}
	return f, nil
}

// zeroPad supplies the padding that aligns the next section.
var zeroPad [7]byte

// genFileParts lays out a generation file from its sections (a nil
// section is absent): the parts of one write, padding and footer
// included.
func genFileParts(sections [numSections][]byte) [][]byte {
	var f genFooter
	parts := make([][]byte, 0, 2*numSections+1)
	size := 0
	for i, sec := range sections {
		if len(sec) == 0 {
			continue
		}
		if pad := -size & 7; pad != 0 {
			parts = append(parts, zeroPad[:pad])
			size += pad
		}
		f[i].off, f[i].n = size, len(sec)
		parts = append(parts, sec)
		size += len(sec)
	}
	if pad := -size & 7; pad != 0 {
		parts = append(parts, zeroPad[:pad])
	}
	return append(parts, encodeGenFooter(f))
}

// genCRC returns the manifest checksum of a file image given as its
// parts: CRC-32 with a computed 0 mapped to 1, so a manifest entry with
// crc 0 matches no file and fails Open.
func genCRC(parts ...[]byte) uint32 {
	var c uint32
	for _, p := range parts {
		c = crc32.Update(c, crc32.IEEETable, p)
	}
	if c != 0 {
		return c
	}
	return 1
}

// loadGeneration is the one way a generation comes online — at Open,
// and after a flush or a compaction wrote it. It maps the file read-only
// where the platform can and otherwise reads its bytes; either way
// decodeGeneration checks them against the manifest entry and decodes
// them zero-copy, so the trie's succinct components and the column
// planes alias the file image and the open costs the CRC pass plus
// O(metadata) directory rebuilds. Mapped, the bits page in on demand and
// the page cache is shared across processes serving the same
// directory. A checksum mismatch is a hard error; a failed map only
// falls back to reading the file.
func loadGeneration(dir string, meta genMeta, schema []ColumnSpec) (*generation, error) {
	path := filepath.Join(dir, genFileName(meta.id))
	if mmapSupported {
		if region, err := mapFile(path); err == nil {
			return decodeGeneration(meta, schema, region.data, region)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeGeneration(meta, schema, data, nil)
}

// decodeGeneration checks a generation file image against its manifest
// entry and decodes its sections zero-copy over data: the deep
// structural re-validation of the trie is skipped, since the bytes are
// exactly what a validated marshal produced. region, when set, is the
// mapping whose data is the image. Column data feeds predicate answers
// straight off its bits, where a silent bit flip would be a wrong result
// rather than a degraded one, so every mismatch is a hard error, never a
// silent rebuild-or-ignore.
func decodeGeneration(meta genMeta, schema []ColumnSpec, data []byte, region *mmapRegion) (*generation, error) {
	name := genFileName(meta.id)
	if crc := genCRC(data); crc != meta.crc {
		return nil, fmt.Errorf("store: %s checksum %#x, manifest says %#x", name, crc, meta.crc)
	}
	foot, err := parseGenFooter(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", name, err)
	}
	section := func(i int) []byte { return data[foot[i].off : foot[i].off+foot[i].n : foot[i].off+foot[i].n] }
	var backing any // a nil *mmapRegion in it would make the Frozen report Mapped
	if region != nil {
		backing = region
	}
	ix, err := wavelettrie.LoadFrozenMapped(section(secTrie), backing)
	if err != nil {
		return nil, fmt.Errorf("store: %s trie section: %w", name, err)
	}
	if ix.Len() != meta.n {
		return nil, fmt.Errorf("store: %s holds %d elements, manifest says %d", name, ix.Len(), meta.n)
	}
	cols, err := decodeGenColumns(section(secCols), section(secBlobs), meta.n, schema, region)
	if err != nil {
		return nil, fmt.Errorf("store: %s %w", name, err)
	}
	return &generation{id: meta.id, crc: meta.crc, ix: ix, seg: newFrozenSeg(ix),
		fileBytes: len(data), sections: foot, region: region, cols: cols}, nil
}

// decodeGenColumns decodes a generation's column and blob-directory
// sections and cross-checks them against the schema and the row count.
// No column section means the generation predates the schema and serves
// all-NULL rows (nil); otherwise the column image must match the schema
// column for column, and a blob directory must be there exactly when
// the schema has blob columns.
func decodeGenColumns(cols, blobs []byte, n int, schema []ColumnSpec, region *mmapRegion) (*frozenCols, error) {
	if len(cols)+len(blobs) == 0 {
		return nil, nil
	}
	if len(schema) == 0 {
		return nil, errors.New("has column sections but the store has no schema")
	}
	fc, err := parseColumn(cols)
	if err != nil {
		return nil, fmt.Errorf("column section: %w", err)
	}
	if fc.n != n {
		return nil, fmt.Errorf("column section covers %d rows, manifest says %d", fc.n, n)
	}
	if len(fc.cols) != len(schema) {
		return nil, fmt.Errorf("column section has %d columns, schema has %d", len(fc.cols), len(schema))
	}
	for i := range fc.cols {
		if k := fc.cols[i].kind; k != schema[i].Kind {
			return nil, fmt.Errorf("column section column %d is %s, schema says %s", i, k, schema[i].Kind)
		}
	}
	fc.region = region
	if has := len(blobs) > 0; has != fc.needsColDir() {
		return nil, fmt.Errorf("blob directory section present: %v, blob columns present: %v", has, !has)
	}
	if len(blobs) == 0 {
		return fc, nil
	}
	dirs, err := parseColDir(blobs)
	if err == nil {
		err = bindColDir(fc, dirs)
	}
	if err != nil {
		return nil, fmt.Errorf("blob directory section: %w", err)
	}
	return fc, nil
}

// writeFileAtomic writes the concatenation of parts to dir/name via a
// temp file, fsync and rename, then syncs the directory: a crash leaves
// either no file or a complete one.
func writeFileAtomic(dir, name string, parts ...[]byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := f.Write(p); err != nil {
			f.Close()
			return err
		}
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

// writeGenerationFrom persists ix as generation id: one file holding the
// Frozen encoding and, when the store has a schema, the rows laid out as
// column images (see colwrite.go), written with one temp file + fsync +
// rename. The rename is atomic, so a crash leaves no partial file — and
// the file is not reachable before a manifest references the
// generation; until then it is an orphan the next Open reclaims. It
// returns the manifest entry; the caller brings the generation online
// with loadGeneration, as Open would.
//
// ix comes from a structural freeze (flush: the sealed memtable's trie)
// or merge (compaction: the victims' tries) — §9; either way no element
// was decoded to make it and the input was never held as a []string.
// feed may be nil (a generation of all-NULL rows).
func writeGenerationFrom(dir string, id uint64, schema []ColumnSpec, feed colFeeder, ix *wavelettrie.Frozen) (genMeta, error) {
	var sections [numSections][]byte
	var err error
	if sections[secTrie], err = ix.MarshalBinary(); err != nil {
		return genMeta{}, err
	}
	if len(schema) > 0 {
		sections[secCols], sections[secBlobs] = encodeColumns(buildFrozenCols(schema, ix.Len(), feed))
	}
	parts := genFileParts(sections)
	meta := genMeta{id: id, n: ix.Len(), crc: genCRC(parts...)}
	return meta, writeFileAtomic(dir, genFileName(id), parts...)
}
