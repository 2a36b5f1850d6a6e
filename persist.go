package wavelettrie

import (
	"fmt"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/hashwt"
	"repro/internal/succinct"
	"repro/internal/wire"
)

// Index is the surface every Wavelet Trie variant in this package
// satisfies — Static, AppendOnly, Dynamic, Numeric and Frozen: the
// structural accessors plus binary serialization. A marshaled index is a
// self-contained, versioned little-endian buffer that Load (or the typed
// Load* functions) reopens without any rebuild work beyond rank-directory
// reconstruction — the snapshot-and-serve lifecycle.
type Index interface {
	// Len returns the number of elements in the sequence.
	Len() int
	// AlphabetSize returns the number of distinct values stored.
	AlphabetSize() int
	// Height returns the maximum trie depth h.
	Height() int
	// SizeBits returns the measured in-memory footprint in bits.
	SizeBits() int
	// MarshalBinary serializes the index into the internal/wire container.
	MarshalBinary() ([]byte, error)
}

// StringIndex is Index plus the five primitive string operations of the
// problem statement (§1) — satisfied by Static, AppendOnly, Dynamic and
// Frozen (Numeric serves integers instead; see Index).
type StringIndex interface {
	Index
	Access(pos int) string
	Rank(s string, pos int) int
	Count(s string) int
	Select(s string, idx int) (pos int, ok bool)
	RankPrefix(p string, pos int) int
	CountPrefix(p string) int
	SelectPrefix(p string, idx int) (pos int, ok bool)
}

// RangeIndex is the full query surface of the shared queries struct —
// StringIndex plus the §5 range analytics — satisfied by Static,
// AppendOnly and Dynamic. (Frozen supports only the primitives.)
type RangeIndex interface {
	StringIndex
	AvgHeight() float64
	Enumerate(l, r int, fn func(pos int, s string) bool)
	Slice(l, r int) []string
	DistinctInRange(l, r int) []Distinct
	RangeMajority(l, r int) (string, bool)
	RangeThreshold(l, r, t int) []Distinct
	TopK(l, r, k int) []Distinct
	DistinctPrefixes(l, r, prefixLen int) []Distinct
}

// Appender is the optional mutation capability of AppendOnly and Dynamic.
type Appender interface {
	Append(s string)
}

// Compile-time conformance: every public variant is an Index, the string
// variants are StringIndexes, and the mutable ones keep their analytics.
var (
	_ RangeIndex  = (*Static)(nil)
	_ RangeIndex  = (*AppendOnly)(nil)
	_ RangeIndex  = (*Dynamic)(nil)
	_ StringIndex = (*Frozen)(nil)

	_ Index = (*Static)(nil)
	_ Index = (*AppendOnly)(nil)
	_ Index = (*Dynamic)(nil)
	_ Index = (*Numeric)(nil)
	_ Index = (*Frozen)(nil)

	_ Appender = (*AppendOnly)(nil)
	_ Appender = (*Dynamic)(nil)
)

// The unified container format: a magic/version header, one kind byte
// naming the variant, then the variant's own encoding. See DESIGN.md for
// the full format inventory.
const (
	persistMagic = 0x57564C54 // "WVLT"
	// v3: a Frozen body is succinct's wire version 4 (one shape bit a node,
	// no internal-node marks, no cumulative-ones directory). Older files
	// are refused by version and left as they are.
	persistVersion = 3
)

const (
	kindStatic byte = iota + 1
	kindAppendOnly
	kindDynamic
	kindNumeric
	kindFrozen
)

func kindName(kind byte) string {
	switch kind {
	case kindStatic:
		return "Static"
	case kindAppendOnly:
		return "AppendOnly"
	case kindDynamic:
		return "Dynamic"
	case kindNumeric:
		return "Numeric"
	case kindFrozen:
		return "Frozen"
	}
	return fmt.Sprintf("kind %d", kind)
}

func marshal(kind byte, body func(w *wire.Writer)) ([]byte, error) {
	w := wire.NewWriter(persistMagic, persistVersion)
	w.Byte(kind)
	body(w)
	return w.Bytes(), nil
}

// MarshalBinary serializes the static Wavelet Trie. The lazily-built
// succinct encoding is not included; use Frozen().MarshalBinary for the
// smallest on-disk form.
func (s *Static) MarshalBinary() ([]byte, error) {
	return marshal(kindStatic, s.st.EncodeTo)
}

// MarshalBinary serializes the append-only Wavelet Trie.
func (a *AppendOnly) MarshalBinary() ([]byte, error) {
	return marshal(kindAppendOnly, a.a.EncodeTo)
}

// MarshalBinary serializes the fully-dynamic Wavelet Trie.
func (d *Dynamic) MarshalBinary() ([]byte, error) {
	return marshal(kindDynamic, d.d.EncodeTo)
}

// MarshalBinary serializes the numeric Wavelet Tree.
func (nq *Numeric) MarshalBinary() ([]byte, error) {
	return marshal(kindNumeric, nq.t.EncodeTo)
}

// Load reopens any index serialized by a MarshalBinary of this package,
// dispatching on the stored kind. Corrupt or truncated input returns an
// error — loaded indexes are validated deeply enough that their whole
// query surface is safe to use.
func Load(data []byte) (Index, error) {
	r, err := wire.NewReader(data, persistMagic, persistVersion)
	if err != nil {
		return nil, err
	}
	kind := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var ix Index
	switch kind {
	case kindStatic:
		st, err := core.DecodeStatic(r)
		if err != nil {
			return nil, err
		}
		if err := validateStored(st.StoredBits()); err != nil {
			return nil, err
		}
		ix = &Static{queries: queries{w: st}, st: st}
	case kindAppendOnly:
		a, err := core.DecodeAppendOnly(r)
		if err != nil {
			return nil, err
		}
		if err := validateStored(a.StoredBits()); err != nil {
			return nil, err
		}
		ix = &AppendOnly{queries: queries{w: a}, a: a}
	case kindDynamic:
		d, err := core.DecodeDynamic(r)
		if err != nil {
			return nil, err
		}
		if err := validateStored(d.StoredBits()); err != nil {
			return nil, err
		}
		ix = &Dynamic{queries: queries{w: d}, d: d}
	case kindNumeric:
		t, err := hashwt.DecodeFrom(r)
		if err != nil {
			return nil, err
		}
		ix = &Numeric{t: t}
	case kindFrozen:
		t, err := succinct.DecodeFrom(r)
		if err != nil {
			return nil, err
		}
		if err := validateStored(t.StoredBits()); err != nil {
			return nil, err
		}
		ix = &Frozen{t: t}
	default:
		return nil, fmt.Errorf("wavelettrie: unknown index kind %d", kind)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return ix, nil
}

// validateStored checks that every stored bit string is a complete
// bitstr encoding, so Access and Enumerate on a loaded index can never
// trip the internal-corruption panic. Valid encodings are automatically
// prefix-free, restoring the Definition 3.1 contract.
func validateStored(stored []bitstr.BitString) error {
	for _, s := range stored {
		if _, err := bitstr.Decode(s); err != nil {
			return fmt.Errorf("wavelettrie: stored string is not a valid encoding: %v", err)
		}
	}
	return nil
}

func loadAs[T Index](data []byte, kind byte) (T, error) {
	ix, err := Load(data)
	if err != nil {
		var zero T
		return zero, err
	}
	t, ok := ix.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("wavelettrie: serialized index is a %T, want %s", ix, kindName(kind))
	}
	return t, nil
}

// LoadFrozenTrusted reconstructs a Frozen from MarshalBinary output,
// skipping the deep structural re-validation that dominates LoadFrozen
// (≈1.4 µs/elem). It is only for input whose integrity the caller has
// already established — e.g. a file whose checksum matches a manifest
// entry the caller itself wrote after a validated marshal. On corrupt
// input the returned index may panic at query time; use LoadFrozen for
// unchecksummed or foreign bytes.
func LoadFrozenTrusted(data []byte) (*Frozen, error) {
	r, err := wire.NewReader(data, persistMagic, persistVersion)
	if err != nil {
		return nil, err
	}
	kind := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if kind != kindFrozen {
		return nil, fmt.Errorf("wavelettrie: serialized index is a %s, want Frozen", kindName(kind))
	}
	t, err := succinct.DecodeFromTrusted(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Frozen{t: t}, nil
}

// LoadFrozenMapped is LoadFrozenTrusted in zero-copy mode: word-aligned
// payloads (labels, bitvectors, Elias-Fano lows) alias data directly
// instead of being copied to the heap, so decoding a generation is
// O(metadata) work and the page cache backs the bits. data is typically
// an mmap'd, checksum-verified generation file; backing is an arbitrary
// handle (e.g. the mapping region) the returned Frozen keeps reachable
// for as long as it lives, preventing premature unmap. The same trust
// contract as LoadFrozenTrusted applies, plus: data must never be
// modified while the Frozen is in use.
func LoadFrozenMapped(data []byte, backing any) (*Frozen, error) {
	r, err := wire.NewReader(data, persistMagic, persistVersion)
	if err != nil {
		return nil, err
	}
	r.EnableRefs()
	kind := r.Byte()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if kind != kindFrozen {
		return nil, fmt.Errorf("wavelettrie: serialized index is a %s, want Frozen", kindName(kind))
	}
	t, err := succinct.DecodeFromTrusted(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Frozen{t: t, backing: backing}, nil
}

// LoadStatic reconstructs a Static from Static.MarshalBinary output.
func LoadStatic(data []byte) (*Static, error) { return loadAs[*Static](data, kindStatic) }

// LoadAppendOnly reconstructs an AppendOnly from AppendOnly.MarshalBinary
// output. Appending may resume immediately.
func LoadAppendOnly(data []byte) (*AppendOnly, error) {
	return loadAs[*AppendOnly](data, kindAppendOnly)
}

// LoadDynamic reconstructs a Dynamic from Dynamic.MarshalBinary output.
func LoadDynamic(data []byte) (*Dynamic, error) { return loadAs[*Dynamic](data, kindDynamic) }

// LoadNumeric reconstructs a Numeric from Numeric.MarshalBinary output.
// The hash multiplier travels with the snapshot, so values round-trip
// even though the original seed is not stored.
func LoadNumeric(data []byte) (*Numeric, error) { return loadAs[*Numeric](data, kindNumeric) }
