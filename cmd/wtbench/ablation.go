package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/rrr"
	"repro/internal/workload"
)

// runABL isolates the RRR-compression design choice on one trie: its
// concatenated node bitvectors β — the one bitvector of the §3 encoding —
// held once as RRR (the paper's choice) and once as a plain rank/select
// bitvector, sized and timed at the same positions. The trade is pure
// space-vs-constant-factor-time.
func runABL(quick bool) {
	fmt.Println("Ablation — the trie's concatenated β: RRR (paper) vs plain uncompressed.")
	t := newTable("n", "variant", "bits/elem", "access ns", "rank ns")
	iters := pick(quick, []int{20000}, []int{100000})[0]
	for _, n := range pick(quick, []int{1 << 14}, []int{1 << 16, 1 << 18}) {
		a := core.NewAppendOnly()
		for _, s := range workload.ZipfStrings(n, 512, 1.4, 21) {
			a.AppendBits(bitstr.EncodeString(s))
		}
		beta := bitstr.NewBuilder(0)
		for p := a.Preorder(); ; {
			_, bv, ok := p.Next()
			if !ok {
				break
			}
			if bv != nil {
				bv.AppendTo(beta)
			}
		}
		cat := beta.View()
		r := rand.New(rand.NewSource(22))
		pos := make([]int, 1024)
		for i := range pos {
			pos[i] = r.Intn(cat.Len())
		}
		for _, v := range []struct {
			name string
			bv   interface {
				Access(pos int) byte
				Rank1(pos int) int
				SizeBits() int
			}
		}{
			{"rrr", rrr.FromWords(cat.Words(), cat.Len())},
			{"plain", bitvec.FromWords(cat.Words(), cat.Len())},
		} {
			acc := measure(iters, func(i int) { v.bv.Access(pos[i&1023]) })
			rk := measure(iters, func(i int) { v.bv.Rank1(pos[i&1023]) })
			t.row(n, v.name, perElem(v.bv.SizeBits(), n), acc, rk)
		}
	}
	t.flush()
	fmt.Println("Expectation: identical asymptotics; RRR smaller on skewed data,")
	fmt.Println("plain faster by a constant factor (no block decode).")
}
