package wavelettree

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
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
// matrix is checked as built and as decoded from its own words. It also
// pins the refusals of the decoder.
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
			dq, err := DecodeMatrix(q.Words(), n, width)
			if err != nil {
				t.Fatalf("sigma=%d n=%d: decoding its own words: %v", sigma, n, err)
			}
			checkMatrix(t, "decoded", dq, model, syms, ivs, rng)
			if want := width * ((n + 63) / 64) * 64; q.SizeBits() < want || (width == 0 && q.SizeBits() != 0) {
				t.Fatalf("sigma=%d n=%d: SizeBits = %d, below the %d plane bits or nonzero without planes", sigma, n, q.SizeBits(), want)
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

	// The decoder refuses what no builder writes.
	words := NewMatrix([]uint64{1, 0, 3, 2, 1}, 2).Words()
	for _, bad := range []struct {
		name     string
		words    []uint64
		n, width int
	}{
		{"a tail bit set past n", []uint64{words[0], words[1] | 1<<5}, 5, 2},
		{"a word short", words[:1], 5, 2},
		{"a word over", append(append([]uint64(nil), words...), 0), 5, 2},
		{"65 planes", make([]uint64, 65), 5, 65},
		{"negative length", nil, -1, 0},
	} {
		if _, err := DecodeMatrix(bad.words, bad.n, bad.width); err == nil {
			t.Errorf("DecodeMatrix accepted %s", bad.name)
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
