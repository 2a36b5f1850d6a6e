package dynbv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/entropy"
)

// oracle is the brute-force reference supporting the same operations.
type oracle struct{ bits []byte }

func (o *oracle) insert(pos int, b byte) {
	o.bits = append(o.bits, 0)
	copy(o.bits[pos+1:], o.bits[pos:])
	o.bits[pos] = b
}
func (o *oracle) delete(pos int) byte {
	b := o.bits[pos]
	o.bits = append(o.bits[:pos], o.bits[pos+1:]...)
	return b
}
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

// checkTree verifies every structural invariant of the run tree.
func checkTree(t *testing.T, v *Vector) {
	t.Helper()
	var walk func(nd *node, depth int) (bits, ones, leafDepth int)
	var firstLeafDepth = -1
	walk = func(nd *node, depth int) (int, int, int) {
		if nd.isLeaf() {
			b, o := 0, 0
			for i, r := range nd.runs {
				if r.n <= 0 {
					t.Fatalf("empty run at leaf index %d", i)
				}
				if i > 0 && nd.runs[i-1].bit == r.bit {
					t.Fatalf("adjacent equal runs inside a leaf at index %d", i)
				}
				b += r.n
				if r.bit == 1 {
					o += r.n
				}
			}
			if len(nd.runs) > maxLeafRuns {
				t.Fatalf("leaf overflow: %d runs", len(nd.runs))
			}
			if b != nd.bits || o != nd.ones {
				t.Fatalf("leaf counts: have (%d,%d) computed (%d,%d)", nd.bits, nd.ones, b, o)
			}
			if firstLeafDepth == -1 {
				firstLeafDepth = depth
			} else if depth != firstLeafDepth {
				t.Fatalf("leaves at different depths: %d vs %d", depth, firstLeafDepth)
			}
			return b, o, depth
		}
		if len(nd.kids) > maxKids {
			t.Fatalf("internal overflow: %d kids", len(nd.kids))
		}
		if len(nd.kids) == 0 {
			t.Fatal("internal node with no children")
		}
		b, o := 0, 0
		for _, k := range nd.kids {
			kb, ko, _ := walk(k, depth+1)
			b += kb
			o += ko
		}
		if b != nd.bits || o != nd.ones {
			t.Fatalf("internal counts: have (%d,%d) computed (%d,%d)", nd.bits, nd.ones, b, o)
		}
		return b, o, depth
	}
	walk(v.root, 0)
}

func compare(t *testing.T, v *Vector, o *oracle, tag string) {
	t.Helper()
	n := len(o.bits)
	if v.Len() != n {
		t.Fatalf("%s: Len=%d want %d", tag, v.Len(), n)
	}
	ones := o.rank(1, n)
	if v.Ones() != ones {
		t.Fatalf("%s: Ones=%d want %d", tag, v.Ones(), ones)
	}
	for i := 0; i < n; i++ {
		if v.Access(i) != o.bits[i] {
			t.Fatalf("%s: Access(%d)", tag, i)
		}
	}
	for pos := 0; pos <= n; pos++ {
		if v.Rank1(pos) != o.rank(1, pos) {
			t.Fatalf("%s: Rank1(%d)=%d want %d", tag, pos, v.Rank1(pos), o.rank(1, pos))
		}
	}
	for idx := 0; idx < ones; idx++ {
		if got, want := v.Select1(idx), o.sel(1, idx); got != want {
			t.Fatalf("%s: Select1(%d)=%d want %d", tag, idx, got, want)
		}
	}
	for idx := 0; idx < n-ones; idx++ {
		if got, want := v.Select0(idx), o.sel(0, idx); got != want {
			t.Fatalf("%s: Select0(%d)=%d want %d", tag, idx, got, want)
		}
	}
}

func TestInsertOnlyAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	v := New()
	o := &oracle{}
	for i := 0; i < 4000; i++ {
		pos := r.Intn(len(o.bits) + 1)
		b := byte(r.Intn(2))
		v.Insert(pos, b)
		o.insert(pos, b)
	}
	compare(t, v, o, "insert-only")
	checkTree(t, v)
}

func TestInterleavedInsertDelete(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	v := New()
	o := &oracle{}
	for round := 0; round < 6; round++ {
		// Growth phase.
		for i := 0; i < 1500; i++ {
			pos := r.Intn(len(o.bits) + 1)
			b := byte(r.Intn(2))
			v.Insert(pos, b)
			o.insert(pos, b)
		}
		checkTree(t, v)
		// Shrink phase.
		for i := 0; i < 1200 && len(o.bits) > 0; i++ {
			pos := r.Intn(len(o.bits))
			want := o.delete(pos)
			if got := v.Delete(pos); got != want {
				t.Fatalf("round %d: Delete(%d)=%d want %d", round, pos, got, want)
			}
		}
		checkTree(t, v)
		compare(t, v, o, "interleaved")
	}
}

func TestDeleteToEmptyAndRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	v := New()
	o := &oracle{}
	for i := 0; i < 2000; i++ {
		b := byte(r.Intn(2))
		v.Insert(v.Len(), b)
		o.insert(len(o.bits), b)
	}
	for len(o.bits) > 0 {
		pos := r.Intn(len(o.bits))
		if v.Delete(pos) != o.delete(pos) {
			t.Fatal("delete mismatch")
		}
	}
	if v.Len() != 0 || v.Ones() != 0 {
		t.Fatalf("not empty: Len=%d", v.Len())
	}
	checkTree(t, v)
	// Insert again after emptying.
	for i := 0; i < 500; i++ {
		pos := r.Intn(len(o.bits) + 1)
		b := byte(r.Intn(2))
		v.Insert(pos, b)
		o.insert(pos, b)
	}
	compare(t, v, o, "rebuilt")
	checkTree(t, v)
}

func TestInitConstantTimeAndQueries(t *testing.T) {
	for _, b := range []byte{0, 1} {
		n := 1 << 30
		v := NewInit(b, n)
		if v.Len() != n {
			t.Fatalf("Len=%d", v.Len())
		}
		if v.RunCount() != 1 {
			t.Fatalf("RunCount=%d want 1", v.RunCount())
		}
		if b == 1 {
			if v.Ones() != n || v.Rank1(12345) != 12345 || v.Select1(999) != 999 {
				t.Fatal("constant-ones queries")
			}
		} else {
			if v.Ones() != 0 || v.Rank0(12345) != 12345 || v.Select0(999) != 999 {
				t.Fatal("constant-zeros queries")
			}
		}
		// γ encoding of a constant vector is O(log n) bits.
		if got := v.EncodedSizeBits(); got > 2+2*31 {
			t.Fatalf("EncodedSizeBits=%d for constant 2^30 vector", got)
		}
	}
}

func TestInitThenEdit(t *testing.T) {
	v := NewInit(0, 50)
	o := &oracle{bits: make([]byte, 50)}
	r := rand.New(rand.NewSource(73))
	for i := 0; i < 400; i++ {
		switch r.Intn(3) {
		case 0:
			pos := r.Intn(len(o.bits) + 1)
			b := byte(r.Intn(2))
			v.Insert(pos, b)
			o.insert(pos, b)
		case 1:
			if len(o.bits) > 0 {
				pos := r.Intn(len(o.bits))
				if v.Delete(pos) != o.delete(pos) {
					t.Fatal("delete mismatch")
				}
			}
		case 2:
			b := byte(r.Intn(2))
			v.Insert(v.Len(), b)
			o.insert(len(o.bits), b)
		}
	}
	compare(t, v, o, "init-then-edit")
	checkTree(t, v)
}

func TestAppendRun(t *testing.T) {
	v := New()
	o := &oracle{}
	r := rand.New(rand.NewSource(74))
	for i := 0; i < 300; i++ {
		b := byte(r.Intn(2))
		cnt := r.Intn(20)
		v.AppendRun(b, cnt)
		for j := 0; j < cnt; j++ {
			o.insert(len(o.bits), b)
		}
	}
	compare(t, v, o, "append-run")
	checkTree(t, v)
}

func TestRLERoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	for trial := 0; trial < 30; trial++ {
		v := New()
		for i := 0; i < 200; i++ {
			v.AppendRun(byte(r.Intn(2)), r.Intn(30))
		}
		words, nbits := v.EncodeRLE()
		got, err := DecodeRLE(words, nbits)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != v.Len() || got.Ones() != v.Ones() {
			t.Fatalf("round trip totals: (%d,%d) vs (%d,%d)", got.Len(), got.Ones(), v.Len(), v.Ones())
		}
		for i := 0; i < v.Len(); i += 7 {
			if got.Access(i) != v.Access(i) {
				t.Fatalf("round trip bit %d", i)
			}
		}
	}
	// Empty vector round trip.
	words, nbits := New().EncodeRLE()
	got, err := DecodeRLE(words, nbits)
	if err != nil || got.Len() != 0 {
		t.Fatalf("empty round trip: %v len=%d", err, got.Len())
	}
	// Malformed stream must error, not panic.
	if _, err := DecodeRLE([]uint64{0}, 1); err == nil {
		t.Fatal("expected error for malformed stream")
	}
}

func TestIterMatchesAccess(t *testing.T) {
	r := rand.New(rand.NewSource(76))
	v := New()
	o := &oracle{}
	for i := 0; i < 3000; i++ {
		pos := r.Intn(len(o.bits) + 1)
		b := byte(r.Intn(2))
		v.Insert(pos, b)
		o.insert(pos, b)
	}
	for _, start := range []int{0, 1, 500, 2999, 3000} {
		it := v.Iter(start)
		for pos := start; pos < 3000; pos++ {
			if !it.Valid() {
				t.Fatalf("iter invalid at %d", pos)
			}
			if it.Next() != o.bits[pos] {
				t.Fatalf("iter from %d mismatch at %d", start, pos)
			}
		}
		if it.Valid() {
			t.Fatal("iter should be exhausted")
		}
	}
}

func TestSpaceTracksRunStructure(t *testing.T) {
	// A vector with k runs of total length n takes about Σ γ(run) bits:
	// far below n when runs are long.
	v := New()
	k := 1000
	runLen := 1000
	for i := 0; i < k; i++ {
		v.AppendRun(byte(i%2), runLen)
	}
	n := k * runLen
	enc := v.EncodedSizeBits()
	// γ(1000) = 19 bits; expect ~19k bits, far below n = 1M.
	if enc > 25*k {
		t.Fatalf("EncodedSizeBits=%d for %d runs", enc, k)
	}
	if enc >= n/10 {
		t.Fatalf("RLE not compressing: %d vs n=%d", enc, n)
	}
	// Entropy comparison: H0 = 1 bit/bit here (balanced), so the RLE win
	// comes from run structure, consistent with O(nH0) only as upper bound.
	_ = entropy.H(0.5)
}

func TestQuickMixedOps(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v := New()
		o := &oracle{}
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				pos := r.Intn(len(o.bits) + 1)
				b := byte(op >> 4 & 1)
				v.Insert(pos, b)
				o.insert(pos, b)
			case 2:
				if len(o.bits) > 0 {
					pos := r.Intn(len(o.bits))
					if v.Delete(pos) != o.delete(pos) {
						return false
					}
				}
			case 3:
				cnt := int(op >> 3)
				b := byte(op >> 7)
				v.AppendRun(b, cnt)
				for j := 0; j < cnt; j++ {
					o.insert(len(o.bits), b)
				}
			}
		}
		if v.Len() != len(o.bits) {
			return false
		}
		for i := 0; i < len(o.bits); i += 3 {
			if v.Access(i) != o.bits[i] || v.Rank1(i) != o.rank(1, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	v := NewInit(1, 3)
	for _, fn := range []func(){
		func() { v.Access(3) },
		func() { v.Rank1(4) },
		func() { v.Select1(3) },
		func() { v.Select0(0) },
		func() { v.Insert(5, 1) },
		func() { v.Delete(3) },
		func() { NewInit(0, -1) },
		func() { v.Iter(4) },
		func() { v.AppendRun(1, -1) },
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

func BenchmarkInsertRandom(b *testing.B) {
	r := rand.New(rand.NewSource(77))
	v := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Insert(r.Intn(v.Len()+1), byte(i&1))
	}
}

func BenchmarkRank1(b *testing.B) {
	r := rand.New(rand.NewSource(78))
	v := New()
	for i := 0; i < 1<<18; i++ {
		v.Insert(r.Intn(v.Len()+1), byte(r.Intn(2)))
	}
	pos := make([]int, 1024)
	for i := range pos {
		pos[i] = r.Intn(v.Len())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(pos[i&1023])
	}
}
