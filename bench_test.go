package wavelettrie

// Root-level benchmarks: one Benchmark group per paper artifact (see
// DESIGN.md §3). These are the testing.B counterparts of cmd/wtbench;
// run with
//
//	go test -bench=. -benchmem
//
// Custom metrics report the space quantities next to the time ones:
// bits/elem for measured size, lb-bits/elem for the independent lower
// bound, so `go test -bench` output alone documents the space story.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/dynbv"
	"repro/internal/entropy"
	"repro/internal/hashwt"
	"repro/internal/workload"
)

const benchN = 1 << 16

func benchSeq() []string {
	return workload.URLLog(benchN, 1, workload.DefaultURLConfig())
}

func benchPool() []string {
	return workload.URLPool(2048, 1, workload.DefaultURLConfig())
}

// --- T1a: static queries -------------------------------------------------

func BenchmarkT1aStaticAccess(b *testing.B) {
	w := NewStatic(benchSeq())
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Access(r.Intn(w.Len()))
	}
}

func BenchmarkT1aStaticRank(b *testing.B) {
	seq := benchSeq()
	w := NewStatic(seq)
	dist := workload.Distinct(seq)
	r := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Rank(dist[i%len(dist)], r.Intn(w.Len()+1))
	}
}

func BenchmarkT1aStaticSelect(b *testing.B) {
	seq := benchSeq()
	w := NewStatic(seq)
	dist := workload.Distinct(seq)[:64]
	counts := make([]int, len(dist))
	for i, s := range dist {
		counts[i] = w.Count(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(dist)
		if counts[j] > 0 {
			w.Select(dist[j], i%counts[j])
		}
	}
}

func BenchmarkT1aStaticRankPrefix(b *testing.B) {
	seq := benchSeq()
	w := NewStatic(seq)
	r := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RankPrefix("host01.example", r.Intn(w.Len()+1))
	}
}

func BenchmarkT1aStaticSelectPrefix(b *testing.B) {
	seq := benchSeq()
	w := NewStatic(seq)
	total := w.CountPrefix("host01.example")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SelectPrefix("host01.example", i%total)
	}
}

// --- Frozen: the §3 succinct form every store generation is served from ---
//
// One 16 384-value URL-log generation (the store's flush threshold), keys
// drawn by position so hot values weigh as they do in a served workload —
// the builder's working loop for the descent kernel.

const frozenBenchN = 1 << 14

func benchFrozen(b *testing.B) (*Frozen, []string, []int) {
	seq := workload.URLLog(frozenBenchN, 1, workload.DefaultURLConfig())
	f := NewStatic(seq).Frozen()
	r := rand.New(rand.NewSource(2))
	pos := make([]int, 1024)
	for i := range pos {
		pos[i] = r.Intn(frozenBenchN)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return f, seq, pos
}

var benchSink int

func BenchmarkFrozenAccess(b *testing.B) {
	f, _, pos := benchFrozen(b)
	for i := 0; i < b.N; i++ {
		benchSink += len(f.Access(pos[i&1023]))
	}
}

func BenchmarkFrozenRank(b *testing.B) {
	f, seq, pos := benchFrozen(b)
	for i := 0; i < b.N; i++ {
		benchSink += f.Rank(seq[pos[i&1023]], pos[(i+1)&1023])
	}
}

func BenchmarkFrozenSelect(b *testing.B) {
	f, seq, pos := benchFrozen(b)
	for i := 0; i < b.N; i++ {
		p, _ := f.Select(seq[pos[i&1023]], 0)
		benchSink += p
	}
}

func BenchmarkFrozenRankPrefix(b *testing.B) {
	f, seq, pos := benchFrozen(b)
	for i := 0; i < b.N; i++ {
		s := seq[pos[i&1023]]
		benchSink += f.RankPrefix(s[:len(s)/2], pos[(i+1)&1023])
	}
}

// BenchmarkFrozenScanPrefix is one page of a served prefix scan: 64
// matches, positions and values, from a scattered offset under a hot, a
// mid and an 8-match prefix.
func BenchmarkFrozenScanPrefix(b *testing.B) {
	for _, p := range []string{"host00.example", "host05.example", "host02.example/a14"} {
		b.Run(p, func(b *testing.B) {
			f, _, pos := benchFrozen(b)
			total, matches := f.CountPrefix(p), 0
			for i := 0; i < b.N; i++ {
				n := 0
				f.EnumeratePrefix(p, pos[i&1023]%total, func(_, at int, val func() string) bool {
					benchSink += at + len(val())
					n++
					return n < 64
				})
				matches += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(matches), "ns/match")
		})
	}
}

// BenchmarkFrozenIteratePage is one page of a served Scan: 256 consecutive
// values from a scattered position.
func BenchmarkFrozenIteratePage(b *testing.B) {
	f, _, pos := benchFrozen(b)
	for i := 0; i < b.N; i++ {
		l := pos[i&1023] % (frozenBenchN - 256)
		f.Iterate(l, l+256, func(_ int, s string) bool {
			benchSink += len(s)
			return true
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*256), "ns/elem")
}

// --- Write path: the freeze a flush runs and the merge a compaction runs ---
//
// The "structural" arms are the store's path (AppendOnly.Frozen,
// ConcatFrozen). The "twopass" arms are the route it replaced, kept here
// only as the reference: every element decoded (or enumerated) back to
// its bits and routed through the two-pass Builder's Patricia trie.

// twoPassConcat is the per-element merge: the parts' alphabets registered,
// then every element decoded and appended.
func twoPassConcat(parts []*Frozen) (*Frozen, error) {
	fb := NewFrozenBuilder()
	for _, f := range parts {
		for _, bs := range f.t.StoredBits() {
			fb.b.AddValueBits(bs)
		}
	}
	var buf [bitstr.KeyWords]uint64
	scratch := bitstr.BuilderOver(buf[:])
	for _, f := range parts {
		it := f.t.Iter(0, f.Len())
		for it.Valid() {
			scratch.Reset()
			it.NextInto(&scratch)
			if err := fb.b.AppendBits(scratch.View()); err != nil {
				return nil, err
			}
		}
		it.Close()
	}
	return fb.Build()
}

func BenchmarkFrozenMerge(b *testing.B) {
	for _, k := range []int{2, 8} {
		seq := workload.URLLog(k*frozenBenchN, 1, workload.DefaultURLConfig())
		parts := make([]*Frozen, k)
		for i := range parts {
			parts[i] = NewStatic(seq[i*frozenBenchN : (i+1)*frozenBenchN]).Frozen()
		}
		arms := []struct {
			name string
			run  func() (*Frozen, error)
		}{
			{"structural", func() (*Frozen, error) { return ConcatFrozen(nil, parts...) }},
			{"twopass", func() (*Frozen, error) { return twoPassConcat(parts) }},
		}
		for _, arm := range arms {
			b.Run(fmt.Sprintf("%dx%d/%s", k, frozenBenchN, arm.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f, err := arm.run()
					if err != nil {
						b.Fatal(err)
					}
					benchSink += f.Len()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seq)), "ns/elem")
			})
		}
	}
}

func BenchmarkAppendOnlyFrozen(b *testing.B) {
	a := NewAppendOnlyFrom(workload.URLLog(frozenBenchN, 1, workload.DefaultURLConfig()))
	arms := []struct {
		name string
		run  func() (*Frozen, error)
	}{
		{"structural", a.Frozen},
		{"twopass", func() (*Frozen, error) {
			fb := NewFrozenBuilder()
			a.FeedValues(fb)
			if err := a.FeedRange(fb, 0, a.Len(), nil); err != nil {
				return nil, err
			}
			return fb.Build()
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, err := arm.run()
				if err != nil {
					b.Fatal(err)
				}
				benchSink += f.Len()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frozenBenchN), "ns/elem")
		})
	}
}

// --- T1b: static space ---------------------------------------------------

func BenchmarkT1bStaticSpace(b *testing.B) {
	seq := benchSeq()
	var w *Static
	for i := 0; i < b.N; i++ {
		w = NewStatic(seq)
	}
	lb := entropy.LB(seq)
	b.ReportMetric(float64(w.SuccinctSizeBits())/float64(w.Len()), "succinct-bits/elem")
	b.ReportMetric(float64(w.SizeBits())/float64(w.Len()), "pointer-bits/elem")
	b.ReportMetric(lb/float64(w.Len()), "lb-bits/elem")
}

// --- T2a/T2b: append-only ------------------------------------------------

func BenchmarkT2aAppend(b *testing.B) {
	seq := benchSeq()
	w := NewAppendOnly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Append(seq[i%len(seq)])
	}
	b.ReportMetric(float64(w.SizeBits())/float64(w.Len()), "bits/elem")
}

func BenchmarkT2bAppendOnlyQueryAccess(b *testing.B) {
	w := NewAppendOnlyFrom(benchSeq())
	r := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Access(r.Intn(w.Len()))
	}
}

func BenchmarkT2bAppendOnlyQueryRankPrefix(b *testing.B) {
	w := NewAppendOnlyFrom(benchSeq())
	r := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RankPrefix("host01.example", r.Intn(w.Len()+1))
	}
}

// --- T2c: append-only space ---------------------------------------------

func BenchmarkT2cAppendOnlySpace(b *testing.B) {
	seq := benchSeq()
	var w *AppendOnly
	for i := 0; i < b.N; i++ {
		w = NewAppendOnlyFrom(seq)
	}
	lb := entropy.LB(seq)
	b.ReportMetric(float64(w.SizeBits())/float64(w.Len()), "bits/elem")
	b.ReportMetric(lb/float64(w.Len()), "lb-bits/elem")
}

// --- T3a: dynamic operations ----------------------------------------------

func benchDynamic(n int) (*Dynamic, []string) {
	pool := benchPool()
	seq := workload.FromPool(n, pool, 1.2, 2)
	return NewDynamicFrom(seq), pool
}

func BenchmarkT3aDynamicInsert(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			w, pool := benchDynamic(n)
			r := rand.New(rand.NewSource(7))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Insert(pool[i%len(pool)], r.Intn(w.Len()+1))
			}
		})
	}
}

func BenchmarkT3aDynamicDelete(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			w, pool := benchDynamic(n)
			r := rand.New(rand.NewSource(8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w.Len() == 0 {
					b.StopTimer()
					w, _ = benchDynamic(n)
					b.StartTimer()
				}
				w.Delete(r.Intn(w.Len()))
			}
			_ = pool
		})
	}
}

func BenchmarkT3aDynamicAccess(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			w, _ := benchDynamic(n)
			r := rand.New(rand.NewSource(9))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Access(r.Intn(w.Len()))
			}
		})
	}
}

// --- T3b: dynamic space ----------------------------------------------------

func BenchmarkT3bDynamicSpace(b *testing.B) {
	seq := benchSeq()
	var w *Dynamic
	for i := 0; i < b.N; i++ {
		w = NewDynamicFrom(seq)
	}
	nh0 := entropy.NH0Strings(seq)
	b.ReportMetric(float64(w.EncodedBitvectorBits())/nh0, "payload/nH0")
	b.ReportMetric(float64(w.SizeBits())/float64(w.Len()), "bits/elem")
}

// --- T4: append-only bitvector --------------------------------------------

func BenchmarkT4AppendBVAppend(b *testing.B) {
	v := appendbv.New()
	r := rand.New(rand.NewSource(10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Append(byte(r.Intn(2)))
	}
}

func BenchmarkT4AppendBVRank(b *testing.B) {
	v := appendbv.New()
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 1<<22; i++ {
		v.Append(byte(r.Intn(2)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Rank1(r.Intn(v.Len()))
	}
	b.ReportMetric(float64(v.SizeBits())/float64(v.Len()), "bits/bit")
}

func BenchmarkT4AppendBVSelect(b *testing.B) {
	v := appendbv.New()
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 1<<22; i++ {
		v.Append(byte(r.Intn(2)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Select1(r.Intn(v.Ones()))
	}
}

// --- T5: dynamic bitvector --------------------------------------------------

func BenchmarkT5DynBVInsert(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		b.Run(sizeName(n), func(b *testing.B) {
			r := rand.New(rand.NewSource(13))
			v := dynbv.New()
			for i := 0; i < n; i++ {
				v.Insert(r.Intn(v.Len()+1), byte(r.Intn(2)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Insert(r.Intn(v.Len()+1), byte(i&1))
			}
		})
	}
}

func BenchmarkT5DynBVInit(b *testing.B) {
	// Init must be O(log n) regardless of length (Remark 4.2).
	for _, n := range []int{1 << 10, 1 << 30} {
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v := dynbv.NewInit(1, n)
				v.Insert(n/2, 0)
			}
		})
	}
}

// --- T6: randomized wavelet tree -------------------------------------------

func BenchmarkT6HashWTAppend(b *testing.B) {
	tr := hashwt.New(64, 14)
	vals := workload.NumericColumn(1<<12, 1024, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(vals[i%len(vals)])
	}
	b.ReportMetric(float64(tr.Height()), "trie-height")
}

// --- Q5: range algorithms ----------------------------------------------------

func BenchmarkQ5Enumerate(b *testing.B) {
	w := NewStatic(benchSeq())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		w.Enumerate(0, w.Len(), func(int, string) bool {
			count++
			return true
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchN), "ns/elem")
}

func BenchmarkQ5RepeatedAccess(b *testing.B) {
	w := NewStatic(benchSeq())
	n := w.Len()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Access(i % n)
	}
}

func BenchmarkQ5DistinctInRange(b *testing.B) {
	w := NewStatic(benchSeq())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.DistinctInRange(benchN/4, 3*benchN/4)
	}
}

func BenchmarkQ5RangeMajority(b *testing.B) {
	w := NewStatic(benchSeq())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RangeMajority(benchN/4, 3*benchN/4)
	}
}

// --- CMP: §1 comparison -------------------------------------------------------

func BenchmarkCMPSpace(b *testing.B) {
	seq := benchSeq()
	var w *Static
	for i := 0; i < b.N; i++ {
		w = NewStatic(seq)
	}
	raw := 0
	for _, s := range seq {
		raw += len(s) * 8
	}
	b.ReportMetric(float64(w.SuccinctSizeBits())/float64(raw), "x-raw")
	b.ReportMetric(float64(w.SuccinctSizeBits())/entropy.LB(seq), "x-lb")
}

func sizeName(n int) string {
	switch {
	case n >= 1<<30:
		return "n=1Gi"
	case n >= 1<<20:
		return "n=" + itoa(n>>20) + "Mi"
	case n >= 1<<10:
		return "n=" + itoa(n>>10) + "Ki"
	default:
		return "n=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
