package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"repro/internal/wire"
)

// Each frozen generation carries a small probe filter persisted beside
// its index file (gen-<id>.flt): the lexicographic min/max of the
// stored values plus a Bloom filter over the byte prefixes (lengths
// 1..filterMaxPrefix) of every distinct value. Merged reads consult it
// before probing the generation, so Rank/Select/Count on a key a
// generation cannot contain skips that generation entirely — per-read
// cost moves from O(generations) toward O(matching generations).
//
// The filter is derived data: it is rebuilt from the loaded index when
// its file is missing, corrupt, or stale (the record carries the CRC of
// the generation file it was built for), so it never gates recovery and
// a crash between filter write and manifest commit only leaves an
// orphan file for the next Open to reclaim. False positives cost one
// wasted probe; false negatives are impossible by construction.
const (
	filterMagic = 0x544C4657 // "WFLT" little-endian
	// filterVersion 2: word payloads are 8-byte aligned within the file
	// (wire.Writer.Words padding). Old v1 filter files simply fail to
	// parse and are rebuilt — filters are derived data.
	filterVersion = 2

	// filterMaxPrefix bounds the indexed prefix length: a probe for a key
	// longer than this tests its filterMaxPrefix-byte prefix instead.
	filterMaxPrefix = 8
	// filterBitsPerKey sizes the Bloom filter (~1% false positives with
	// four hashes at ten bits per inserted prefix).
	filterBitsPerKey = 10
	filterHashes     = 4

	maxFilterBits = 1 << 30 // sanity cap when parsing foreign input; fits int on 32-bit platforms
)

// probeFilter answers "can this generation contain the key?" — never
// falsely no. A nil filter answers yes to everything.
type probeFilter struct {
	genCRC   uint32 // CRC-32 of the generation file this filter describes
	min, max string // lexicographic bounds of the stored values
	nbits    int
	words    []uint64
}

func filterFileName(id uint64) string { return fmt.Sprintf("gen-%08d.flt", id) }

// buildFilter indexes the distinct values of a generation (sorted or
// not; bounds are computed here) for the generation file with the given
// checksum.
func buildFilter(values []string, genCRC uint32) *probeFilter {
	f := &probeFilter{genCRC: genCRC}
	if len(values) == 0 {
		f.nbits = 64
		f.words = make([]uint64, 1)
		return f
	}
	f.min, f.max = values[0], values[0]
	keys := 0
	for _, v := range values {
		if v < f.min {
			f.min = v
		}
		if v > f.max {
			f.max = v
		}
		keys += min(len(v), filterMaxPrefix)
	}
	nbits := keys * filterBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	// Stay readable by parseFilter's cap: Bloom saturation past this
	// point only raises false positives (wasted probes), whereas an
	// unreadable filter file would force a rebuild on every Open.
	if nbits > maxFilterBits {
		nbits = maxFilterBits
	}
	f.nbits = nbits
	f.words = make([]uint64, (nbits+63)/64)
	// Prefixes a value shares with the previous one are already covered
	// (inductively: a skipped v[:j] equals prev[:j], itself inserted or
	// skipped as covered), so skipping them dedups with O(1) extra
	// memory in any input order — near-perfectly on the sorted slices
	// Frozen.Values yields. Inserts are idempotent; this only saves
	// hashing.
	prev := ""
	for _, v := range values {
		lcp := 0
		for lcp < len(v) && lcp < len(prev) && lcp < filterMaxPrefix && v[lcp] == prev[lcp] {
			lcp++
		}
		for j := lcp + 1; j <= len(v) && j <= filterMaxPrefix; j++ {
			f.insert(v[:j])
		}
		prev = v
	}
	return f
}

// filterHash returns the two independent hash values double hashing
// derives the probe sequence from: FNV-1a inlined over the string bytes
// (byte-identical to hash/fnv.New64a, but zero-alloc — this runs once
// per filtered read, when its probe is built).
func filterHash(key string) (h1, h2 uint64) {
	v := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(key); i++ {
		v ^= uint64(key[i])
		v *= 1099511628211 // FNV-64 prime
	}
	return v, v>>33 | 1 // odd, so the probe sequence covers the table
}

func (f *probeFilter) insert(key string) {
	h1, h2 := filterHash(key)
	for i := 0; i < filterHashes; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(f.nbits)
		f.words[bit>>6] |= 1 << (bit & 63)
	}
}

// test probes the Bloom filter with a key's hash pair.
func (f *probeFilter) test(h1, h2 uint64) bool {
	for i := 0; i < filterHashes; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(f.nbits)
		if f.words[bit>>6]&(1<<(bit&63)) == 0 {
			return false
		}
	}
	return true
}

// mayContain reports whether the generation can hold a match for k: an
// exact occurrence of k.key, or, for a prefix probe, any value with that
// byte prefix. No false negatives: a false answer proves the count is
// zero in this generation. The key was hashed once, when the probe was
// built. A nil filter and the empty prefix admit everything.
func (f *probeFilter) mayContain(k *probe) bool {
	if f == nil || (k.prefix && len(k.key) == 0) {
		return true
	}
	if len(k.key) == 0 {
		// The empty string is stored iff it is the minimum; it has no
		// prefix in the Bloom filter to test.
		return filterVerdict(f.min == "")
	}
	return filterVerdict(f.inBounds(k) && f.test(k.h1, k.h2))
}

// inBounds checks k against the generation's min/max. Values with prefix
// p occupy the lexicographic range [p, p·0xff…], hence the asymmetric
// checks for prefix probes.
func (f *probeFilter) inBounds(k *probe) bool {
	v := k.key
	if k.prefix {
		return v <= f.max && (v >= f.min || strings.HasPrefix(f.min, v))
	}
	return v >= f.min && v <= f.max
}

// filterVerdict counts a filter probe's answer: a false is a pruned
// generation (the win the filter exists for), a true is a probe the
// trie must serve. Trivial answers (nil filter, empty prefix) are not
// probes and are not counted.
func filterVerdict(ok bool) bool {
	if ok {
		met.filterPasses.Inc()
	} else {
		met.filterNegatives.Inc()
	}
	return ok
}

func encodeFilter(f *probeFilter) []byte {
	w := wire.NewWriter(filterMagic, filterVersion)
	w.U32(f.genCRC)
	w.Blob([]byte(f.min))
	w.Blob([]byte(f.max))
	w.Int(f.nbits)
	w.Words(f.words)
	// Self-checksum over the whole record so far: a bit flip in the Bloom
	// words or bounds would otherwise parse cleanly and turn into silent
	// false negatives — wrong answers, the one failure mode a filter must
	// not have. A mismatch reads as corrupt and triggers a rebuild.
	body := w.Bytes()
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// parseFilter decodes and validates a filter image. Arbitrary input
// must error, never panic — this function is fuzzed. A parse error is
// never fatal to the store: the caller rebuilds the filter from the
// generation index instead.
func parseFilter(data []byte) (*probeFilter, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("store: filter image too short")
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("store: filter self-checksum mismatch")
	}
	r, err := wire.NewReader(body, filterMagic, filterVersion)
	if err != nil {
		return nil, err
	}
	f := &probeFilter{genCRC: r.U32()}
	f.min = string(r.Blob())
	f.max = string(r.Blob())
	f.nbits = r.Int()
	f.words = r.Words()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if f.nbits <= 0 || f.nbits > maxFilterBits {
		return nil, fmt.Errorf("store: filter has implausible %d bits", f.nbits)
	}
	if len(f.words) != (f.nbits+63)/64 {
		return nil, fmt.Errorf("store: filter words/bits mismatch (%d words, %d bits)", len(f.words), f.nbits)
	}
	if f.min > f.max {
		return nil, fmt.Errorf("store: filter bounds inverted")
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return f, nil
}

// sizeBits returns the filter's in-memory footprint, for GenInfo.
func (f *probeFilter) sizeBits() int {
	if f == nil {
		return 0
	}
	return 64*len(f.words) + 8*(len(f.min)+len(f.max)) + 128
}
