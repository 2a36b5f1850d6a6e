package wavelettree

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/wire"
)

// naiveMatrix is the obvious reference model: the values, plus each
// value's ascending occurrence positions.
type naiveMatrix struct {
	vals []uint64
	occ  map[uint64][]int
}

func newNaiveMatrix(vals []uint64) naiveMatrix {
	m := naiveMatrix{vals: vals, occ: map[uint64][]int{}}
	for pos, v := range vals {
		m.occ[v] = append(m.occ[v], pos)
	}
	return m
}

func (m naiveMatrix) rank(sym uint64, pos int) int { return sort.SearchInts(m.occ[sym], pos) }

func (m naiveMatrix) sel(sym uint64, idx int) (int, bool) {
	if occ := m.occ[sym]; idx >= 0 && idx < len(occ) {
		return occ[idx], true
	}
	return 0, false
}

func (m naiveMatrix) rangeCount(l, r int, lo, hi uint64) int {
	c := 0
	for _, v := range m.vals[l:r] {
		if lo <= v && v <= hi {
			c++
		}
	}
	return c
}

// checkMatrix diffs every query of q against the model: Access at every
// position, Rank at boundary and random cuts and Select of every
// occurrence for the given symbols (absent ones included), and RangeCount
// over the given intervals at boundary and random position spans.
func checkMatrix(t *testing.T, name string, q *Matrix, model naiveMatrix, syms []uint64, ivs [][2]uint64, rng *rand.Rand) {
	t.Helper()
	n := len(model.vals)
	for pos, want := range model.vals {
		if got := q.Access(pos); got != want {
			t.Fatalf("%s: Access(%d) = %d, want %d", name, pos, got, want)
		}
	}
	cuts := []int{0, 1, 63, 64, 65, 511, 512, 513, n / 3, n / 2, n - 1, n}
	for i := 0; i < 8; i++ {
		cuts = append(cuts, rng.Intn(n+1))
	}
	for _, sym := range syms {
		for _, pos := range cuts {
			if pos < 0 || pos > n {
				continue
			}
			if got, want := q.Rank(sym, pos), model.rank(sym, pos); got != want {
				t.Fatalf("%s: Rank(%d, %d) = %d, want %d", name, sym, pos, got, want)
			}
		}
		total := model.rank(sym, n)
		for idx := -1; idx <= total; idx++ {
			gp, gok := q.Select(sym, idx)
			wp, wok := model.sel(sym, idx)
			if gok != wok || gp != wp {
				t.Fatalf("%s: Select(%d, %d) = (%d, %v), want (%d, %v)", name, sym, idx, gp, gok, wp, wok)
			}
		}
	}
	for _, iv := range ivs {
		for _, sp := range [][2]int{{0, n}, {0, 0}, {n / 2, n}, {n / 3, n/3 + 1}, {rng.Intn(n + 1), n}} {
			l, r := min(sp[0], n), min(sp[1], n)
			if got, want := q.RangeCount(l, r, iv[0], iv[1]), model.rangeCount(l, r, iv[0], iv[1]); got != want {
				t.Fatalf("%s: RangeCount(%d, %d, %d, %d) = %d, want %d", name, l, r, iv[0], iv[1], got, want)
			}
		}
	}
}

// nodeIntervals returns value intervals for a width: the whole range, the
// extremes, an empty and an overreaching one, and, at every level, the
// range of a node and intervals cut one inside and one outside its
// boundaries — the containment tests of the range-count recursion.
func nodeIntervals(width int, rng *rand.Rand) [][2]uint64 {
	top := ^uint64(0) >> (64 - uint(width))
	ivs := [][2]uint64{{0, top}, {0, 0}, {top, top}, {1, 0}, {top, math.MaxUint64}, {0, math.MaxUint64}}
	for k := 0; k < width; k++ {
		span := uint64(1) << uint(k)
		j := rng.Uint64() & (top >> uint(k))
		lo, hi := j*span, j*span+span-1
		ivs = append(ivs, [2]uint64{lo, hi}, [2]uint64{lo + 1, hi}, [2]uint64{lo, hi - 1}, [2]uint64{lo - 1, hi + 1})
	}
	for i := 0; i < 4; i++ {
		a, b := rng.Uint64()&top, rng.Uint64()&top
		ivs = append(ivs, [2]uint64{min(a, b), max(a, b)})
	}
	return ivs
}

// TestMatrixDifferential checks the wavelet matrix against the naive
// model: every width 0–8 (alphabets 1 through 256, covering each width
// with the even and odd symbol counts the router's shard counts take) at
// lengths straddling the word, rank-superblock and router-chunk sizes,
// then range counts at widths up to 64 with values at the extremes; each
// matrix is checked as built and as decoded from its own encoding. It
// also pins the refusals of the decoder.
func TestMatrixDifferential(t *testing.T) {
	sizes := []int{0, 1, 2, 63, 64, 65, 511, 512, 513, 2047, 2048, 2049, 4095, 4096, 4097, 5000}
	for _, sigma := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 21, 64, 100, 256} {
		width := bits.Len(uint(sigma - 1))
		rng := rand.New(rand.NewSource(int64(sigma)))
		for _, n := range sizes {
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = uint64(rng.Intn(sigma))
			}
			model := newNaiveMatrix(append([]uint64(nil), vals...))
			q := NewMatrix(vals, width)
			if q.Width() != width {
				t.Fatalf("sigma=%d: Width = %d, want %d", sigma, q.Width(), width)
			}
			// Symbols that occur, that fit the width but are absent, and
			// that do not fit it.
			syms := []uint64{0, uint64(sigma / 2), uint64(sigma - 1), uint64(sigma), 1 << uint(width), math.MaxUint64}
			ivs := nodeIntervals(width, rng)
			checkMatrix(t, "built", q, model, syms, ivs, rng)
			dq, err := decodeMatrix(encodeMatrix(q), n, true)
			if err != nil {
				t.Fatalf("sigma=%d n=%d: decoding its own encoding: %v", sigma, n, err)
			}
			checkMatrix(t, "decoded", dq, model, syms, ivs, rng)
			if plain := plainBits(n, width); q.SizeBits() > plain || (width == 0 && q.SizeBits() != 0) {
				t.Fatalf("sigma=%d n=%d: SizeBits = %d, above the %d of plain planes, or nonzero without planes", sigma, n, q.SizeBits(), plain)
			}
		}
	}

	for _, width := range []int{0, 1, 7, 8, 13, 31, 32, 33, 63, 64} {
		rng := rand.New(rand.NewSource(int64(100 + width)))
		top := ^uint64(0) >> (64 - uint(width))
		for _, n := range []int{1, 65, 600, 2049} {
			vals := make([]uint64, n)
			for i := range vals {
				switch rng.Intn(4) {
				case 0:
					vals[i] = top
				case 1:
					vals[i] = rng.Uint64() & top & 0xFF // clustered low
				default:
					vals[i] = rng.Uint64() & top
				}
			}
			model := newNaiveMatrix(append([]uint64(nil), vals...))
			q := NewMatrix(vals, width)
			syms := []uint64{0, top, model.vals[n/2], top - 1}
			checkMatrix(t, "wide", q, model, syms, nodeIntervals(width, rng), rng)
		}
	}

	// The decoder refuses what no builder writes: a plain plane's tail bit
	// set past n, a word short or over, more than 64 planes and a plane kind
	// it does not know. (TestMatrixPlaneDensities covers the RRR planes.)
	img := encodeMatrix(NewMatrix([]uint64{1, 0, 3, 2, 1}, 2)) // two plain planes, a word each
	plainImage := func(width int, kinds []byte, words []uint64) []byte {
		w := wire.NewWriter(matrixTestMagic, 1)
		w.Byte(byte(width))
		for _, k := range kinds {
			w.Byte(k)
		}
		w.Words(words)
		return w.Bytes()
	}
	if _, err := decodeMatrix(img, 5, true); err != nil {
		t.Fatalf("a well-formed image was refused: %v", err)
	}
	r, _ := wire.NewReader(img, matrixTestMagic, 1)
	r.Byte()
	r.Byte()
	r.Byte()
	words := r.Words()
	for _, bad := range []struct {
		name string
		img  []byte
		n    int
	}{
		{"a tail bit set past n", plainImage(2, []byte{planePlain, planePlain}, []uint64{words[0], words[1] | 1<<5}), 5},
		{"a word short", plainImage(2, []byte{planePlain, planePlain}, words[:1]), 5},
		{"a word over", plainImage(2, []byte{planePlain, planePlain}, append(slices.Clone(words), 0)), 5},
		{"65 planes", plainImage(65, make([]byte, 65), make([]uint64, 65)), 5},
		{"an unknown plane kind", plainImage(2, []byte{planePlain, 2}, words), 5},
		{"a negative length", plainImage(0, nil, nil), -1},
	} {
		for _, refs := range []bool{false, true} {
			if _, err := decodeMatrix(bad.img, bad.n, refs); err == nil {
				t.Errorf("DecodeMatrix (zero-copy %v) accepted %s", refs, bad.name)
			}
		}
	}
}

// The test framing: magic "TEST", version 1, a 6-byte header.
const (
	matrixTestMagic = 0x54534554
	wireHeader      = 6
)

// plainBits is the SizeBits of width plain planes over n values.
func plainBits(n, width int) int {
	return width * bitvec.FromWords(make([]uint64, (n+63)/64), n).SizeBits()
}

// encodeMatrix frames q's encoding as a wire message.
func encodeMatrix(q *Matrix) []byte {
	w := wire.NewWriter(matrixTestMagic, 1)
	q.EncodeTo(w)
	return w.Bytes()
}

// decodeMatrix decodes a matrix over n values from img, zero-copy when
// refs is set, and requires the message to be used up.
func decodeMatrix(img []byte, n int, refs bool) (*Matrix, error) {
	r, err := wire.NewReader(img, matrixTestMagic, 1)
	if err != nil {
		return nil, err
	}
	if refs {
		r.EnableRefs()
	}
	q := DecodeMatrix(r, n)
	return q, r.Done()
}

// skewedValues returns n values of width bits, each bit set with
// probability p on its own — so every plane has density about p.
func skewedValues(rng *rand.Rand, n, width int, p float64) []uint64 {
	vals := make([]uint64, n)
	for i := range vals {
		for b := 0; b < width; b++ {
			if rng.Float64() < p {
				vals[i] |= 1 << uint(b)
			}
		}
	}
	return vals
}

// checkAppendValues diffs AppendValues against the model (n ≥ 1 values)
// over the whole range and sub-ranges — empty, one value, halves, the
// middle, a word's worth, random — appending behind a non-empty prefix,
// which must stay put.
func checkAppendValues(t *testing.T, name string, q *Matrix, model naiveMatrix, rng *rand.Rand) {
	t.Helper()
	n := len(model.vals)
	spans := [][2]int{{0, n}, {0, 0}, {n, n}, {0, 1}, {n / 2, n}, {0, n / 2}, {n / 4, n - n/4}, {min(63, n), min(127, n)}}
	for i := 0; i < 6; i++ {
		a := rng.Intn(n + 1)
		spans = append(spans, [2]int{a, a + rng.Intn(n+1-a)})
	}
	prefix := []uint64{7, 9}
	for _, sp := range spans {
		got := q.AppendValues(slices.Clone(prefix), sp[0], sp[1])
		if want := append(slices.Clone(prefix), model.vals[sp[0]:sp[1]]...); !slices.Equal(got, want) {
			t.Fatalf("%s: AppendValues(%d, %d) differs from the values (%d of them)", name, sp[0], sp[1], sp[1]-sp[0])
		}
	}
}

// TestMatrixPlaneDensities checks a matrix whose planes take either form
// against the flat model: planes of density 0, 1 %, 5 %, 50 %, 95 % and
// 100 % at widths 0, 1, 7, 16 and 64, as built, as decoded zero-copy and
// copying, and through AppendValues. A skewed or constant plane must be
// RRR-coded and a balanced one plain, the matrix must be smaller than its
// plain planes wherever one is RRR, and the decoder must refuse an RRR
// plane that disagrees with its matrix or whose blocks lie.
func TestMatrixPlaneDensities(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, width := range []int{0, 1, 7, 16, 64} {
		for _, p := range []float64{0, 0.01, 0.05, 0.5, 0.95, 1} {
			for _, n := range []int{0, 1, 63, 1009, 2100} { // 2100 crosses two RRR superblocks
				vals := skewedValues(rng, n, width, p)
				model := newNaiveMatrix(slices.Clone(vals))
				q := NewMatrix(vals, width)
				if n >= 1009 {
					rrrPlanes := 0
					for d := range q.planes {
						if q.planes[d].rrr != nil {
							rrrPlanes++
						}
					}
					want := width // skewed or constant
					if p == 0.5 {
						want = 0
					}
					if rrrPlanes != want {
						t.Fatalf("width %d density %.2f n=%d: %d RRR planes, want %d", width, p, n, rrrPlanes, want)
					}
					if plain := plainBits(n, width); rrrPlanes > 0 && q.SizeBits() >= plain {
						t.Fatalf("width %d density %.2f: %d bits, not below the %d of plain planes", width, p, q.SizeBits(), plain)
					}
				}
				if n == 0 {
					if got := q.AppendValues(nil, 0, 0); len(got) != 0 {
						t.Fatalf("width %d: AppendValues of an empty matrix returned %d values", width, len(got))
					}
					continue
				}
				top := ^uint64(0) >> (64 - uint(width))
				syms := []uint64{0, top, model.vals[n/2], model.vals[n-1]}
				ivs := nodeIntervals(width, rng)
				name := fmt.Sprintf("width %d density %.2f n=%d", width, p, n)
				checkMatrix(t, name+" built", q, model, syms, ivs, rng)
				checkAppendValues(t, name+" built", q, model, rng)
				img := encodeMatrix(q)
				for _, refs := range []bool{false, true} {
					dq, err := decodeMatrix(img, n, refs)
					if err != nil {
						t.Fatalf("width %d density %.2f n=%d: decoding its own encoding: %v", width, p, n, err)
					}
					if refs { // the copying decode builds the same planes
						checkMatrix(t, name+" decoded", dq, model, syms, ivs, rng)
						checkAppendValues(t, name+" decoded", dq, model, rng)
					}
					if !slices.Equal(encodeMatrix(dq), img) {
						t.Fatalf("width %d density %.2f n=%d: re-encoding changed the bytes", width, p, n)
					}
				}
			}
		}
	}

	// Refusals on RRR planes: one plane of a sparse width-1 matrix whose
	// last block has a one, so the offset stream's last word holds that
	// block's offset.
	vals := make([]uint64, 1000)
	for _, i := range []int{3, 200, 999} {
		vals[i] = 1
	}
	img := encodeMatrix(NewMatrix(vals, 1))
	if _, err := decodeMatrix(img, 1000, true); err != nil {
		t.Fatalf("the sparse image was refused: %v", err)
	}
	lying := slices.Clone(img)
	for i := len(lying) - 8; i < len(lying); i++ {
		lying[i] = 0xFF // every offset field all ones: past C(63, 1)
	}
	wrongKind := slices.Clone(img)
	wrongKind[wireHeader+1] = planePlain // the RRR stream read as plain words
	for _, bad := range []struct {
		name string
		img  []byte
		n    int
	}{
		{"an offset past its class", lying, 1000},
		{"an RRR plane of another length", img, 999},
		{"an RRR stream under a plain kind", wrongKind, 1000},
		{"a torn RRR stream", img[:len(img)-8], 1000},
	} {
		for _, refs := range []bool{false, true} {
			if _, err := decodeMatrix(bad.img, bad.n, refs); err == nil {
				t.Errorf("DecodeMatrix (zero-copy %v) accepted %s", refs, bad.name)
			}
		}
	}
}

// TestMatrixSpace pins the point of the structure: at uniform data the
// footprint stays near width bits a value, far below the 32 bits a value
// of a plain uint32 slab.
func TestMatrixSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		sigma   int
		maxBits float64 // generous per-value budget incl. the rank directories
	}{{2, 1.3}, {4, 2.3}, {8, 3.5}, {16, 4.6}, {256, 8.7}} {
		vals := make([]uint64, 1<<14)
		for i := range vals {
			vals[i] = uint64(rng.Intn(tc.sigma))
		}
		q := NewMatrix(vals, bits.Len(uint(tc.sigma-1)))
		if got := float64(q.SizeBits()) / float64(len(vals)); got > tc.maxBits {
			t.Errorf("sigma=%d: %.2f bits/value, want <= %.2f", tc.sigma, got, tc.maxBits)
		}
	}
}

// TestMatrixPanics checks the builder's refusals and the out-of-range
// queries; Select of a missing occurrence reports ok=false instead.
func TestMatrixPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	q := NewMatrix([]uint64{0, 1, 1, 0}, 1)
	mustPanic("width 65", func() { NewMatrix(nil, 65) })
	mustPanic("width -1", func() { NewMatrix(nil, -1) })
	mustPanic("value too wide", func() { NewMatrix([]uint64{2}, 1) })
	mustPanic("nonzero value at width 0", func() { NewMatrix([]uint64{1}, 0) })
	mustPanic("access -1", func() { q.Access(-1) })
	mustPanic("access n", func() { q.Access(4) })
	mustPanic("rank pos", func() { q.Rank(0, 5) })
	mustPanic("range count past n", func() { q.RangeCount(0, 5, 0, 1) })
	mustPanic("range count reversed", func() { q.RangeCount(3, 2, 0, 1) })
	if _, ok := q.Select(1, 2); ok {
		t.Errorf("Select(1, 2) of a missing occurrence reported ok")
	}
	if _, ok := q.Select(2, 0); ok || q.Rank(2, 4) != 0 {
		t.Errorf("a symbol wider than the matrix was found")
	}
}

// BenchmarkMatrixAppendValues decodes every value of a matrix over 131 072
// uniform 16-bit values — a compacted column of the benchmark's schema —
// plane by plane (AppendValues) and, as the reference arm, with one Access
// a position.
func BenchmarkMatrixAppendValues(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 1<<17)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 16))
	}
	q := NewMatrix(vals, 16)
	dst := make([]uint64, 0, len(vals))
	b.Run("levelwise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = q.AppendValues(dst[:0], 0, len(vals))
		}
	})
	b.Run("access", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			for pos := range vals {
				dst = append(dst, q.Access(pos))
			}
		}
	})
}

// TestMatrixCursor reads increasing runs of positions through a Cursor —
// every position, scattered ones at small and superblock-sized gaps, and
// each position twice — and checks every value against Matrix.Access, on
// plain planes, skewed (RRR) ones and mixed widths, past several RRR
// superblocks.
func TestMatrixCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, width := range []int{1, 2, 7, 16} {
		for _, p := range []float64{0.02, 0.5, 0.97} {
			for _, n := range []int{1, 63, 5000} {
				q := NewMatrix(skewedValues(rng, n, width, p), width)
				rrrPlanes := 0
				for d := range q.planes {
					if q.planes[d].rrr != nil {
						rrrPlanes++
					}
				}
				for _, gap := range []int{1, 3, 40, 2000} {
					c := q.Cursor()
					for pos := rng.Intn(min(gap, n)); pos < n; pos += 1 + rng.Intn(gap) {
						for rep := 0; rep < 1+rng.Intn(2); rep++ {
							if got, want := c.Access(pos), q.Access(pos); got != want {
								t.Fatalf("width %d density %.2f n=%d (%d RRR planes) gap %d: Cursor.Access(%d) = %d, want %d",
									width, p, n, rrrPlanes, gap, pos, got, want)
							}
						}
					}
				}
			}
		}
	}
}
