package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
)

// naiveSelect64 is the definition: the position of the k-th set bit.
func naiveSelect64(w uint64, k int) int {
	for i := 0; i < 64; i++ {
		if w>>uint(i)&1 == 1 {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

func TestSelect64(t *testing.T) {
	words := []uint64{
		1, 1 << 63, 1<<63 | 1, ^uint64(0), 0xAAAAAAAAAAAAAAAA, 0x5555555555555555,
		0xFF, 0xFF00000000000000, 0x8000000000000001, 0x0101010101010101,
		0x8080808080808080, 0x00FF00FF00FF00FF, 0xFFFFFFFF00000000, 0x7FFFFFFFFFFFFFFF,
	}
	for i := 0; i < 64; i++ {
		words = append(words, 1<<uint(i), ^(uint64(1) << uint(i)), ^uint64(0)<<uint(i), ^uint64(0)>>uint(i))
	}
	r := rand.New(rand.NewSource(70))
	for i := 0; i < 2000; i++ {
		// Mixed densities: AND/OR of random words thin and thicken them.
		w := r.Uint64()
		switch i % 4 {
		case 1:
			w &= r.Uint64() & r.Uint64()
		case 2:
			w |= r.Uint64() | r.Uint64()
		}
		words = append(words, w)
	}
	for _, w := range words {
		for k := 0; k < bits.OnesCount64(w); k++ {
			if got, want := Select64(w, k), naiveSelect64(w, k); got != want {
				t.Fatalf("Select64(%#x, %d) = %d, want %d", w, k, got, want)
			}
		}
	}
}

// TestSelectAcrossDensitiesAndBoundaries checks Select1 (plain and
// hinted), Select0 and NextOne against position lists, at densities from
// empty to full and at lengths that straddle the word (64), superblock
// (512) and hint-spacing (selectSample ones) boundaries.
func TestSelectAcrossDensitiesAndBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	type shape struct {
		p float64
		n []int
	}
	around := func(xs ...int) []int {
		var out []int
		for _, x := range xs {
			out = append(out, x-1, x, x+1)
		}
		return out
	}
	shapes := []shape{
		{0, around(64, 512, 4096)},
		{1, around(64, 512, selectSample, 2*selectSample, 512*3, selectSample*9)},
		{0.5, around(64, 512, 2*selectSample, 4*selectSample, 20*selectSample)},
		// ~selectSample ones: the hint table gains its second entry here.
		{1e-3, []int{1000, selectSample * 1000, selectSample*1000 + 70000, 3 * selectSample * 1000}},
	}
	for _, sh := range shapes {
		for _, n := range sh.n {
			b := NewBuilder(n)
			var ones, zeros []int
			for i := 0; i < n; i++ {
				if r.Float64() < sh.p {
					b.AppendBit(1)
					ones = append(ones, i)
				} else {
					b.AppendBit(0)
					zeros = append(zeros, i)
				}
			}
			v := b.Build()
			check := func(stage string) {
				for idx, want := range ones {
					if got := v.Select1(idx); got != want {
						t.Fatalf("p=%g n=%d %s: Select1(%d)=%d want %d", sh.p, n, stage, idx, got, want)
					}
				}
			}
			check("plain")
			before := v.SizeBits()
			v.IndexSelect1()
			v.IndexSelect1() // idempotent
			if want := before + 32*len(v.sel1); v.SizeBits() != want {
				t.Fatalf("p=%g n=%d: SizeBits %d does not count the %d hints (want %d)", sh.p, n, v.SizeBits(), len(v.sel1), want)
			}
			check("hinted")
			step := 1 + len(zeros)/3000
			for idx := 0; idx < len(zeros); idx += step {
				if got := v.Select0(idx); got != zeros[idx] {
					t.Fatalf("p=%g n=%d: Select0(%d)=%d want %d", sh.p, n, idx, got, zeros[idx])
				}
			}
			if len(zeros) > 0 {
				if got := v.Select0(len(zeros) - 1); got != zeros[len(zeros)-1] {
					t.Fatalf("p=%g n=%d: last Select0=%d want %d", sh.p, n, got, zeros[len(zeros)-1])
				}
			}
			// NextOne from every one, from just past it, and from the end.
			for i, p := range ones {
				if got := v.NextOne(p); got != p {
					t.Fatalf("p=%g n=%d: NextOne(%d)=%d", sh.p, n, p, got)
				}
				want := n
				if i+1 < len(ones) {
					want = ones[i+1]
				}
				if got := v.NextOne(p + 1); got != want {
					t.Fatalf("p=%g n=%d: NextOne(%d)=%d want %d", sh.p, n, p+1, got, want)
				}
			}
			if got := v.NextOne(n); got != n {
				t.Fatalf("NextOne(Len)=%d want %d", got, n)
			}
			if len(ones) == 0 && n > 0 && v.NextOne(0) != n {
				t.Fatalf("NextOne(0) on an all-zero vector = %d want %d", v.NextOne(0), n)
			}
		}
	}
}

func TestReadWriteBits(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	for width := 0; width <= 64; width++ {
		for start := 0; start < 130; start += 1 + start/7 {
			words := make([]uint64, 4)
			v := r.Uint64()
			WriteBits(words, start, v, width)
			want := v
			if width < 64 {
				want &= 1<<uint(width) - 1
			}
			if got := ReadBits(words, start, width); got != want {
				t.Fatalf("width=%d start=%d: read %#x want %#x", width, start, got, want)
			}
			// Nothing outside the field was touched.
			total := 0
			for _, w := range words {
				total += bits.OnesCount64(w)
			}
			if total != bits.OnesCount64(want) {
				t.Fatalf("width=%d start=%d: %d bits set, field has %d", width, start, total, bits.OnesCount64(want))
			}
		}
	}
}
