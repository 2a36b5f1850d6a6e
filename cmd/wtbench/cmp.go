package main

import (
	"fmt"
	"math/rand"
	"time"

	wavelettrie "repro"
	"repro/internal/entropy"
	"repro/internal/seqstore/btindex"
	"repro/internal/seqstore/flat"
	"repro/internal/seqstore/textindex"
	"repro/internal/wavelettree"
	"repro/internal/workload"
)

// runCMP reproduces the §1 related-work comparison: the Wavelet Trie vs
// (1) dictionary-mapped Wavelet Tree, (3) B-tree index, and the raw
// sequence. Three axes: space, operation latency, and the capability /
// dynamic-alphabet matrix.
func runCMP(quick bool) {
	n := pick(quick, []int{1 << 14}, []int{1 << 17})[0]
	seq := workload.URLLog(n, 1, workload.DefaultURLConfig())
	lb := entropy.LB(seq)

	wtrie := wavelettrie.NewStatic(seq)
	wtree := wavelettree.New(seq)
	bt := btindex.FromSlice(seq)
	fl := flat.FromSlice(seq)
	ti := textindex.New(seq)

	fmt.Printf("workload: URL log, n=%d, |Sset|=%d, LB=%.1f bits/elem\n\n",
		n, wtrie.AlphabetSize(), lb/float64(n))

	fmt.Println("Space (bits/element; LB is the information-theoretic floor):")
	t := newTable("structure", "bits/elem", "x raw", "x LB")
	raw := fl.SizeBits()
	rows := []struct {
		name string
		bits int
	}{
		{"wavelet trie (succinct)", wtrie.SizeBits()},
		{"wavelet tree + dict", wtree.SizeBits()},
		{"b-tree index + seq", bt.SizeBits()},
		{"text index (SA) + seq", ti.SizeBits()},
		{"raw sequence", raw},
	}
	for _, rw := range rows {
		t.row(rw.name, perElem(rw.bits, n),
			fmt.Sprintf("%.2f", float64(rw.bits)/float64(raw)),
			fmt.Sprintf("%.2f", float64(rw.bits)/lb))
	}
	t.flush()

	fmt.Println("\nOperation latency (ns/op; '-' = unsupported or linear-time fallback):")
	r := rand.New(rand.NewSource(6))
	p := makeProbes(seq, r)
	iters := pick(quick, []int{20000}, []int{100000})[0]

	t2 := newTable("structure", "access", "rank", "select", "rankPrefix", "selectPrefix")
	{
		a, rk, se, rp, sp := benchQueries(wtrie, p, iters)
		t2.row("wavelet trie", a, rk, se, rp, sp)
	}
	{
		a := measure(iters, func(i int) { wtree.Access(p.pos[i&1023] % n) })
		rk := measure(iters, func(i int) { wtree.Rank(p.strings[i&63], p.pos[i&1023]) })
		se := measure(iters, func(i int) {
			s := p.strings[i&63]
			if c := wtree.Rank(s, n); c > 0 {
				wtree.Select(s, i%c)
			}
		})
		rp := measure(iters, func(i int) { wtree.RankPrefix(p.prefixes[i&63], p.pos[i&1023]) })
		// SelectPrefix has only the linear fallback; even a handful of
		// low-index calls is enough to show the gap (each call merges the
		// postings of every symbol in the prefix range).
		sp := measure(pick(quick, []int{5}, []int{20})[0], func(i int) {
			pf := p.prefixes[i&63]
			if c := wtree.RankPrefix(pf, n); c > 0 {
				wtree.SelectPrefixScan(pf, i%min(c, 8))
			}
		})
		t2.row("wavelet tree + dict", a, rk, se, rp, fmt.Sprintf("%.0f (scan)", sp))
	}
	{
		a := measure(iters, func(i int) { bt.Access(p.pos[i&1023] % n) })
		rk := measure(iters, func(i int) { bt.Rank(p.strings[i&63], p.pos[i&1023]) })
		se := measure(iters, func(i int) {
			s := p.strings[i&63]
			if c := bt.Rank(s, n); c > 0 {
				bt.Select(s, i%c)
			}
		})
		rp := measure(pick(quick, []int{2000}, []int{20000})[0], func(i int) {
			bt.RankPrefix(p.prefixes[i&63], p.pos[i&1023])
		})
		sp := measure(pick(quick, []int{20}, []int{100})[0], func(i int) {
			pf := p.prefixes[i&63]
			if c := bt.RankPrefix(pf, n); c > 0 {
				bt.SelectPrefix(pf, i%c)
			}
		})
		t2.row("b-tree index + seq", a, rk, se,
			fmt.Sprintf("%.0f (merge)", rp), fmt.Sprintf("%.0f (merge)", sp))
	}
	{
		// The text index (approach (2)): every string op is a pattern
		// search over the concatenation plus an occurrence scan.
		tIters := pick(quick, []int{100}, []int{300})[0]
		a := measure(iters, func(i int) { ti.Access(p.pos[i&1023] % n) })
		rk := measure(tIters, func(i int) { ti.Rank(p.strings[i&63], p.pos[i&1023]) })
		se := measure(tIters, func(i int) {
			s := p.strings[i&63]
			if c := ti.Count(s); c > 0 {
				ti.Select(s, i%c)
			}
		})
		rp := measure(tIters, func(i int) { ti.RankPrefix(p.prefixes[i&63], p.pos[i&1023]) })
		sp := measure(tIters, func(i int) {
			pf := p.prefixes[i&63]
			if c := ti.RankPrefix(pf, n); c > 0 {
				ti.SelectPrefix(pf, i%c)
			}
		})
		t2.row("text index (SA) + seq", a,
			fmt.Sprintf("%.0f (search)", rk), fmt.Sprintf("%.0f (search)", se),
			fmt.Sprintf("%.0f (search)", rp), fmt.Sprintf("%.0f (search)", sp))
	}
	t2.flush()

	fmt.Println("\nDynamic alphabet (issue (a) of §1): appending a stream whose alphabet grows.")
	fmt.Println("The wavelet tree must rebuild on every unseen value; the wavelet trie just appends.")
	stream := workload.GrowingAlphabet(pick(quick, []int{2000}, []int{20000})[0], 25, 7)
	t3 := newTable("structure", "total time", "rebuilds")
	{
		w := wavelettrie.NewAppendOnly()
		start := time.Now()
		for _, s := range stream {
			w.Append(s)
		}
		t3.row("wavelet trie (append-only)", time.Since(start).Round(time.Microsecond).String(), 0)
	}
	{
		// Batched rebuild policy for the wavelet tree: rebuild when an
		// unseen value arrives, carrying the pending buffer.
		start := time.Now()
		wt := wavelettree.New(nil)
		rebuilds := 0
		var pending []string
		for _, s := range stream {
			pending = append(pending, s)
			if !wt.Contains(s) {
				wt = wt.Rebuild(pending)
				pending = pending[:0]
				rebuilds++
			}
		}
		if len(pending) > 0 {
			wt = wt.Rebuild(pending)
			rebuilds++
		}
		t3.row("wavelet tree + dict", time.Since(start).Round(time.Microsecond).String(), rebuilds)
	}
	t3.flush()

	fmt.Println("\nCapability matrix:")
	t4 := newTable("capability", "wavelet trie", "wavelet tree+dict", "b-tree index", "text index", "raw")
	t4.row("compressed to ~H0(S)", "yes", "yes", "no", "no (per text byte)", "no")
	t4.row("access/rank/select", "yes", "yes", "yes (2x space)", "search+scan", "scan")
	t4.row("rankPrefix", "O(|p|+h)", "O(log sigma) via 2D", "merge postings", "search+scan", "scan")
	t4.row("selectPrefix", "O(|p|+h)", "no (linear scan)", "merge postings", "search+scan", "scan")
	t4.row("substring search", "no", "no", "no", "yes", "scan")
	t4.row("unseen values (dynamic Sset)", "yes", "rebuild", "yes", "rebuild", "yes")
	t4.row("insert/delete at position", "yes (dynamic)", "no", "append-only", "no", "O(n) shift")
	t4.flush()
}
