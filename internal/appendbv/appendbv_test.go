package appendbv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitstr"
	"repro/internal/entropy"
)

// oracle mirrors the vector with a plain byte slice.
type oracle struct{ bits []byte }

func (o *oracle) append(b byte)     { o.bits = append(o.bits, b) }
func (o *oracle) access(i int) byte { return o.bits[i] }
func (o *oracle) rank(b byte, pos int) int {
	r := 0
	for _, x := range o.bits[:pos] {
		if x == b {
			r++
		}
	}
	return r
}
func (o *oracle) sel(b byte, idx int) int {
	for i, x := range o.bits {
		if x == b {
			if idx == 0 {
				return i
			}
			idx--
		}
	}
	return -1
}

func checkAll(t *testing.T, v *Vector, o *oracle, tag string) {
	t.Helper()
	n := len(o.bits)
	if v.Len() != n {
		t.Fatalf("%s: Len=%d want %d", tag, v.Len(), n)
	}
	ones := o.rank(1, n)
	if v.Ones() != ones || v.Zeros() != n-ones {
		t.Fatalf("%s: Ones=%d want %d", tag, v.Ones(), ones)
	}
	step := 1
	if n > 3000 {
		step = 17
	}
	for i := 0; i < n; i += step {
		if v.Access(i) != o.access(i) {
			t.Fatalf("%s: Access(%d)", tag, i)
		}
	}
	for pos := 0; pos <= n; pos += step {
		if v.Rank1(pos) != o.rank(1, pos) {
			t.Fatalf("%s: Rank1(%d)=%d want %d", tag, pos, v.Rank1(pos), o.rank(1, pos))
		}
	}
	for idx := 0; idx < ones; idx += step {
		if got, want := v.Select1(idx), o.sel(1, idx); got != want {
			t.Fatalf("%s: Select1(%d)=%d want %d", tag, idx, got, want)
		}
	}
	for idx := 0; idx < n-ones; idx += step {
		if got, want := v.Select0(idx), o.sel(0, idx); got != want {
			t.Fatalf("%s: Select0(%d)=%d want %d", tag, idx, got, want)
		}
	}
}

func TestAppendAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(60))
	for _, n := range []int{0, 1, 100, SegmentBits - 1, SegmentBits, SegmentBits + 1, 3 * SegmentBits / 2} {
		for _, p := range []float64{0, 0.1, 0.5, 1} {
			v := New()
			o := &oracle{}
			for i := 0; i < n; i++ {
				b := byte(0)
				if r.Float64() < p {
					b = 1
				}
				v.Append(b)
				o.append(b)
			}
			checkAll(t, v, o, "plain")
		}
	}
}

func TestCrossSegmentBoundaries(t *testing.T) {
	// Deterministic pattern crossing several seals; verify exhaustively
	// near the boundaries.
	v := New()
	o := &oracle{}
	n := 2*SegmentBits + 500
	for i := 0; i < n; i++ {
		b := byte(0)
		if i%3 == 0 || i%7 == 0 {
			b = 1
		}
		v.Append(b)
		o.append(b)
	}
	for _, center := range []int{0, SegmentBits, 2 * SegmentBits, n} {
		for d := -70; d <= 70; d++ {
			pos := center + d
			if pos < 0 || pos > n {
				continue
			}
			if v.Rank1(pos) != o.rank(1, pos) {
				t.Fatalf("Rank1(%d)", pos)
			}
			if pos < n && v.Access(pos) != o.access(pos) {
				t.Fatalf("Access(%d)", pos)
			}
		}
	}
}

func TestInitRun(t *testing.T) {
	for _, b := range []byte{0, 1} {
		for _, initN := range []int{0, 1, 5, 100000} {
			v := NewInit(b, initN)
			o := &oracle{}
			for i := 0; i < initN; i++ {
				o.append(b)
			}
			// Then append a mixed pattern.
			r := rand.New(rand.NewSource(int64(initN) + int64(b)))
			for i := 0; i < 300; i++ {
				x := byte(r.Intn(2))
				v.Append(x)
				o.append(x)
			}
			if initN > 1000 {
				// Spot checks only; the oracle loop above is the slow part.
				if v.Len() != initN+300 {
					t.Fatalf("Len=%d", v.Len())
				}
				if v.Access(initN/2) != b {
					t.Fatal("init run access")
				}
				if b == 1 && v.Rank1(initN) != initN {
					t.Fatal("init run rank")
				}
				if b == 0 && v.Rank0(initN) != initN {
					t.Fatal("init run rank0")
				}
				continue
			}
			checkAll(t, v, o, "init")
		}
	}
}

func TestInitRunIsConstantSpace(t *testing.T) {
	small := NewInit(1, 10).SizeBits()
	big := NewInit(1, 1<<30).SizeBits()
	if big != small {
		t.Fatalf("Init(1, 2^30) takes %d bits vs %d for Init(1,10); must be O(log n)", big, small)
	}
}

func TestIterMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	v := NewInit(1, 77)
	o := &oracle{}
	for i := 0; i < 77; i++ {
		o.append(1)
	}
	n := SegmentBits + 1234
	for i := 0; i < n; i++ {
		b := byte(r.Intn(2))
		v.Append(b)
		o.append(b)
	}
	total := len(o.bits)
	for _, start := range []int{0, 30, 77, 78, SegmentBits + 76, SegmentBits + 77, total - 1, total} {
		it := v.Iter(start)
		for pos := start; pos < total; pos++ {
			if got := it.Next(); got != o.access(pos) {
				t.Fatalf("iter from %d: bit %d mismatch", start, pos)
			}
		}
		if it.Valid() {
			t.Fatal("iter should be exhausted")
		}
	}
}

func TestSpaceApproachesEntropy(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	n := 1 << 20
	for _, p := range []float64{0.01, 0.1, 0.5} {
		v := New()
		ones := 0
		for i := 0; i < n; i++ {
			b := byte(0)
			if r.Float64() < p {
				b = 1
				ones++
			}
			v.Append(b)
		}
		nh0 := entropy.NH0Bits(ones, n)
		got := float64(v.SizeBits())
		// Theorem 4.5: nH0 + o(n). Allow the practical-RRR redundancy
		// (~12% of n) plus slack.
		if got > nh0+0.2*float64(n) {
			t.Errorf("p=%v: %d bits vs nH0=%.0f + o(n)", p, int(got), nh0)
		}
	}
}

func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64, n16 uint16, initLen8 uint8, initBit bool) bool {
		r := rand.New(rand.NewSource(seed))
		ib := byte(0)
		if initBit {
			ib = 1
		}
		il := int(initLen8) % 64
		v := NewInit(ib, il)
		o := &oracle{}
		for i := 0; i < il; i++ {
			o.append(ib)
		}
		n := int(n16) % 1500
		for i := 0; i < n; i++ {
			b := byte(r.Intn(2))
			v.Append(b)
			o.append(b)
		}
		total := len(o.bits)
		for k := 0; k < 50; k++ {
			pos := 0
			if total > 0 {
				pos = r.Intn(total)
			}
			if v.Rank1(pos) != o.rank(1, pos) {
				return false
			}
			if total > 0 && v.Access(pos) != o.access(pos) {
				return false
			}
		}
		if v.Ones() > 0 && v.Select1(v.Ones()-1) != o.sel(1, v.Ones()-1) {
			return false
		}
		if v.Zeros() > 0 && v.Select0(v.Zeros()-1) != o.sel(0, v.Zeros()-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	v := New()
	v.Append(1)
	for _, fn := range []func(){
		func() { v.Access(1) },
		func() { v.Rank1(2) },
		func() { v.Select1(1) },
		func() { v.Select0(0) },
		func() { NewInit(1, -1) },
		func() { v.Iter(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkAppend(b *testing.B) {
	v := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Append(byte(i & 1))
	}
}

func BenchmarkRank1(b *testing.B) {
	r := rand.New(rand.NewSource(63))
	v := New()
	n := 1 << 20
	for i := 0; i < n; i++ {
		v.Append(byte(r.Intn(2)))
	}
	pos := make([]int, 1024)
	for i := range pos {
		pos[i] = r.Intn(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(pos[i&1023])
	}
}

// TestAppendToMatchesAccess copies whole vectors out — with and without an
// Init run, with no, one and several sealed segments, with an empty and a
// partial tail — onto an unaligned destination, and checks every bit and
// the reported ones.
func TestAppendToMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, initN := range []int{0, 3, 1000} {
		for _, n := range []int{0, 1, 100, SegmentBits, SegmentBits + 1, 3*SegmentBits + 777} {
			v := NewInit(byte(initN&1), initN)
			for i := 0; i < n; i++ {
				v.Append(byte(r.Intn(4) / 3))
			}
			dst := bitstr.NewBuilder(0)
			dst.AppendRun(0, 3)
			if got := v.AppendTo(dst); got != v.Ones() {
				t.Fatalf("init=%d n=%d: AppendTo counted %d ones, vector has %d", initN, n, got, v.Ones())
			}
			out := dst.BitString()
			if out.Len() != 3+v.Len() {
				t.Fatalf("init=%d n=%d: copied %d bits, want %d", initN, n, out.Len()-3, v.Len())
			}
			for i := 0; i < v.Len(); i++ {
				if out.Bit(3+i) != v.Access(i) {
					t.Fatalf("init=%d n=%d: bit %d differs", initN, n, i)
				}
			}
		}
	}
}
