package store

import (
	"fmt"
	"os"

	"repro/internal/wire"
)

// The manifest is the store's root pointer: which generation files make
// up the sequence (in order), which WAL is current, and the next file id
// to allocate. It is rewritten atomically — encode to MANIFEST.tmp, fsync,
// rename over MANIFEST — so a crash leaves either the old or the new
// manifest, never a partial one.
//
// Each generation entry carries the CRC-32 (IEEE) of its file, footer
// included: a matching checksum lets Open skip the deep structural
// re-validation of the frozen index (the dominant recovery cost) while
// catching the bit flips structure checks cannot. The manifest also pins
// the store's column schema (name + kind per column — fixed for the
// store's lifetime, like the shard layout in SHARDS); a generation file
// with no column section predates the schema and reads as all-NULL rows.
// Version 5 is the only version read or written (version 4 kept a
// generation's columns in two files of their own, with a CRC each).
const (
	manifestMagic   = 0x4E414D57 // "WMAN" little-endian
	manifestVersion = 5

	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"

	maxManifestGens = 1 << 16
)

// genMeta is one generation as recorded in the manifest.
type genMeta struct {
	id  uint64 // names the file gen-<id>.wt
	n   int    // element count, cross-checked against the loaded file
	crc uint32 // CRC-32 of gen-<id>.wt (see genCRC; never 0)
}

// manifest is the decoded root pointer.
type manifest struct {
	nextID uint64 // next unallocated file id (> every gen and WAL id)
	walID  uint64 // the current WAL; ids >= walID may hold live records
	gens   []genMeta
	schema []ColumnSpec // pinned column schema; empty = no columns
}

func genFileName(id uint64) string { return fmt.Sprintf("gen-%08d.wt", id) }
func walFileName(id uint64) string { return fmt.Sprintf("wal-%08d.log", id) }

func encodeManifest(m manifest) []byte {
	w := wire.NewWriter(manifestMagic, manifestVersion)
	w.U64(m.nextID)
	w.U64(m.walID)
	w.Int(len(m.gens))
	for _, g := range m.gens {
		w.U64(g.id)
		w.Int(g.n)
		w.U32(g.crc)
	}
	w.Int(len(m.schema))
	for _, c := range m.schema {
		w.Str(c.Name)
		w.Byte(byte(c.Kind))
	}
	return w.Bytes()
}

// parseManifest decodes and validates a manifest image. Arbitrary input
// must error, never panic — this function is fuzzed.
func parseManifest(data []byte) (manifest, error) {
	var m manifest
	r, err := wire.NewReader(data, manifestMagic, manifestVersion)
	if err != nil {
		return m, err
	}
	m.nextID = r.U64()
	m.walID = r.U64()
	count := r.Int()
	if err := r.Err(); err != nil {
		return m, err
	}
	if count > maxManifestGens {
		return m, fmt.Errorf("store: manifest lists %d generations (limit %d)", count, maxManifestGens)
	}
	seen := make(map[uint64]bool, count)
	var total int64
	for i := 0; i < count; i++ {
		g := genMeta{id: r.U64(), n: r.Int(), crc: r.U32()}
		if err := r.Err(); err != nil {
			return m, err
		}
		if g.id == 0 || g.id >= m.nextID {
			return m, fmt.Errorf("store: manifest generation id %d outside (0, nextID=%d)", g.id, m.nextID)
		}
		if seen[g.id] {
			return m, fmt.Errorf("store: manifest repeats generation id %d", g.id)
		}
		seen[g.id] = true
		if total += int64(g.n); total > 1<<56 {
			return m, fmt.Errorf("store: manifest element count overflows")
		}
		m.gens = append(m.gens, g)
	}
	if m.walID == 0 || m.walID >= m.nextID {
		return m, fmt.Errorf("store: manifest WAL id %d outside (0, nextID=%d)", m.walID, m.nextID)
	}
	ncols := r.Int()
	if err := r.Err(); err != nil {
		return m, err
	}
	if ncols < 0 || ncols > maxColumns {
		return m, fmt.Errorf("store: manifest schema lists %d columns (limit %d)", ncols, maxColumns)
	}
	for i := 0; i < ncols; i++ {
		c := ColumnSpec{Name: r.Str(), Kind: ColumnKind(r.Byte())}
		if err := r.Err(); err != nil {
			return m, err
		}
		m.schema = append(m.schema, c)
	}
	if err := validateSchema(m.schema); err != nil {
		return m, err
	}
	if err := r.Done(); err != nil {
		return m, err
	}
	return m, nil
}

// writeManifest atomically replaces dir/MANIFEST with the encoding of m.
func writeManifest(dir string, m manifest) error {
	return writeFileAtomic(dir, manifestName, encodeManifest(m))
}

// syncDir fsyncs a directory so a just-renamed file survives power loss;
// best effort — some platforms reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
