package main

import (
	"fmt"
	"math/rand"

	wavelettrie "repro"
	"repro/internal/entropy"
	"repro/internal/seqstore"
	"repro/internal/workload"
)

// queryProbes draws strings and prefixes to query with, plus random
// positions, from a built sequence.
type probes struct {
	strings  []string
	prefixes []string
	pos      []int
}

func makeProbes(seq []string, r *rand.Rand) probes {
	dist := workload.Distinct(seq)
	p := probes{pos: make([]int, 1024)}
	for i := 0; i < 64; i++ {
		p.strings = append(p.strings, dist[r.Intn(len(dist))])
	}
	for i := 0; i < 64; i++ {
		s := dist[r.Intn(len(dist))]
		cut := 1 + r.Intn(len(s))
		p.prefixes = append(p.prefixes, s[:cut])
	}
	for i := range p.pos {
		p.pos[i] = r.Intn(len(seq) + 1)
	}
	return p
}

// benchQueries measures ns/op for the five Table-1 query operations on
// any seqstore.Sequence — a Wavelet Trie variant, a baseline, or an
// index reopened from a snapshot.
func benchQueries(w seqstore.Sequence, p probes, iters int) (access, rank, sel, rankP, selP float64) {
	n := w.Len()
	access = measure(iters, func(i int) { w.Access(p.pos[i&1023] % n) })
	rank = measure(iters, func(i int) { w.Rank(p.strings[i&63], p.pos[i&1023]) })
	sel = measure(iters, func(i int) {
		s := p.strings[i&63]
		c := w.Rank(s, n)
		if c > 0 {
			w.Select(s, i%c)
		}
	})
	rankP = measure(iters, func(i int) { w.RankPrefix(p.prefixes[i&63], p.pos[i&1023]) })
	selP = measure(iters, func(i int) {
		pf := p.prefixes[i&63]
		c := w.RankPrefix(pf, n)
		if c > 0 {
			w.SelectPrefix(pf, i%c)
		}
	})
	return
}

func sizesFor(quick bool) []int {
	return pick(quick, []int{1 << 12, 1 << 14}, []int{1 << 14, 1 << 16, 1 << 18, 1 << 20})
}

func runT1a(quick bool) {
	fmt.Println("Expectation: every column flat in n (cost O(|s|+hs), no n term).")
	fmt.Println("Sset is held fixed (2048 URLs) so hs does not drift with n.")
	t := newTable("n", "access ns", "rank ns", "select ns", "rankPrefix ns", "selectPrefix ns", "h~")
	iters := pick(quick, []int{20000}, []int{200000})[0]
	pool := workload.URLPool(2048, 1, workload.DefaultURLConfig())
	for _, n := range sizesFor(quick) {
		seq := workload.FromPool(n, pool, 1.2, 2)
		w := wavelettrie.NewStatic(seq)
		p := makeProbes(seq, rand.New(rand.NewSource(2)))
		a, rk, se, rp, sp := benchQueries(w, p, iters)
		t.row(n, a, rk, se, rp, sp, w.AvgHeight())
	}
	t.flush()
}

func runT1b(quick bool) {
	fmt.Println("Expectation: total bits ≈ LB = LT(Sset)+nH0(S); redundancy/(h~n) shrinking in n.")
	t := newTable("n", "succinct b/elem", "LB b/elem", "nH0 b/elem", "redundancy/(h~n)")
	for _, n := range sizesFor(quick) {
		seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
		w := wavelettrie.NewStatic(seq)
		lb := entropy.LB(seq)
		nh0 := entropy.NH0Strings(seq)
		succ := w.SizeBits()
		red := (float64(succ) - lb) / (w.AvgHeight() * float64(n))
		t.row(n, perElem(succ, n), lb/float64(n), nh0/float64(n), fmt.Sprintf("%.3f", red))
	}
	t.flush()
}

func runT2a(quick bool) {
	fmt.Println("Expectation: ns/Append flat in n (amortized O(|s|+hs)).")
	t := newTable("n so far", "ns/append", "h~", "|Sset|")
	n := pick(quick, []int{1 << 15}, []int{1 << 20})[0]
	seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
	w := wavelettrie.NewAppendOnly()
	chunk := n / 8
	for c := 0; c < 8; c++ {
		ns := measure(chunk, func(i int) { w.Append(seq[c*chunk+i]) })
		t.row(w.Len(), ns, w.AvgHeight(), w.AlphabetSize())
	}
	t.flush()
}

func runT2b(quick bool) {
	fmt.Println("Expectation: query latency flat in n, same shape as static (T1a).")
	t := newTable("n", "access ns", "rank ns", "select ns", "rankPrefix ns", "selectPrefix ns")
	iters := pick(quick, []int{20000}, []int{100000})[0]
	pool := workload.URLPool(2048, 1, workload.DefaultURLConfig())
	for _, n := range sizesFor(quick) {
		seq := workload.FromPool(n, pool, 1.2, 2)
		w := wavelettrie.NewAppendOnlyFrom(seq)
		p := makeProbes(seq, rand.New(rand.NewSource(2)))
		a, rk, se, rp, sp := benchQueries(w, p, iters)
		t.row(n, a, rk, se, rp, sp)
	}
	t.flush()
}

func runT2c(quick bool) {
	fmt.Println("Expectation: bits ≈ LB + PT (pointer term O(|Sset|·w)) + o(h~n).")
	t := newTable("n", "total b/elem", "LB b/elem", "PT b/elem", "|Sset|", "overhead/(h~n)")
	for _, n := range sizesFor(quick) {
		seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
		w := wavelettrie.NewAppendOnlyFrom(seq)
		lb := entropy.LB(seq)
		k := w.AlphabetSize()
		pt := float64((2*k - 1) * 6 * 64) // Lemma 4.1 pointer words
		over := (float64(w.SizeBits()) - lb - pt) / (w.AvgHeight() * float64(n))
		t.row(n, perElem(w.SizeBits(), n), lb/float64(n), pt/float64(n), k,
			fmt.Sprintf("%.3f", over))
	}
	t.flush()
}

func runT3a(quick bool) {
	fmt.Println("Expectation: ns/op grows ~ log n: the ns/log2(n) column stays roughly constant,")
	fmt.Println("unlike T1a/T2b where raw ns is already flat.")
	t := newTable("n", "insert ns", "ins/log2n", "delete ns", "del/log2n", "access ns", "acc/log2n")
	sizes := pick(quick, []int{1 << 10, 1 << 12}, []int{1 << 12, 1 << 14, 1 << 16, 1 << 18})
	iters := pick(quick, []int{3000}, []int{20000})[0]
	pool := workload.URLPool(2048, 1, workload.DefaultURLConfig())
	for _, n := range sizes {
		seq := workload.FromPool(n, pool, 1.2, 2)
		w := wavelettrie.NewDynamicFrom(seq)
		r := rand.New(rand.NewSource(3))
		dist := workload.Distinct(seq)
		ins := measure(iters, func(i int) {
			w.Insert(dist[i%len(dist)], r.Intn(w.Len()+1))
		})
		del := measure(iters, func(i int) { w.Delete(r.Intn(w.Len())) })
		acc := measure(iters, func(i int) { w.Access(r.Intn(w.Len())) })
		lg := log2(float64(n))
		t.row(n, ins, ins/lg, del, del/lg, acc, acc/lg)
	}
	t.flush()
}

func runT3b(quick bool) {
	fmt.Println("Expectation: γ-encoded bitvector payload within a small constant of nH0;")
	fmt.Println("total = payload + PT + tree directories.")
	t := newTable("n", "payload b/elem", "nH0 b/elem", "payload/nH0", "total b/elem", "LB b/elem")
	for _, n := range sizesFor(quick) {
		seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
		w := wavelettrie.NewDynamicFrom(seq)
		nh0 := entropy.NH0Strings(seq)
		lb := entropy.LB(seq)
		enc := float64(w.EncodedBitvectorBits())
		ratio := enc / nh0
		t.row(n, perElem(w.EncodedBitvectorBits(), n), nh0/float64(n),
			fmt.Sprintf("%.2f", ratio), perElem(w.SizeBits(), n), lb/float64(n))
	}
	t.flush()
}
