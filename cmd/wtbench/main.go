// Command wtbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index). Since PODS 2012
// is a theory venue, the "tables" are the bounds of Table 1 and the
// worked examples of Figures 1–3; wtbench measures the bounds empirically
// and prints the figures structurally.
//
// Usage:
//
//	wtbench -exp all            # run everything
//	wtbench -exp t1a            # one experiment
//	wtbench -exp t3a -quick     # smaller sizes for a fast smoke run
//
// Experiments: figs, t1a, t1b, t2a, t2b, t2c, t3a, t3b, t4, t5, t6, q5,
// cmp, abl. The engine around the structure (store, shards, columns,
// server, replication) is measured by bench/, end to end and rung by rung
// (go run -C bench . -workload all -trace 1).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id   string
	desc string
	run  func(quick bool)
}

var experiments = []experiment{
	{"figs", "Figures 1-3: worked structures from the paper", runFigures},
	{"t1a", "Table 1 static: query time O(|s|+hs), flat in n", runT1a},
	{"t1b", "Table 1 static: space vs lower bound LB + o(h~n)", runT1b},
	{"t2a", "Table 1 append-only: Append O(|s|+hs), flat in n", runT2a},
	{"t2b", "Table 1 append-only: query time, flat in n", runT2b},
	{"t2c", "Table 1 append-only: space LB + PT + o(h~n)", runT2c},
	{"t3a", "Table 1 dynamic: Insert/Delete/Query O(|s|+hs log n)", runT3a},
	{"t3b", "Table 1 dynamic: space LB + PT + O(nH0)", runT3b},
	{"t4", "Thm 4.5 append-only bitvector: O(1) ops, nH0+o(n) bits", runT4},
	{"t5", "Thm 4.9 dynamic RLE+gamma bitvector: O(log n) ops, O(log n) Init", runT5},
	{"t6", "Thm 6.2 randomized wavelet tree: height <= (a+2) log sigma w.h.p.", runT6},
	{"q5", "Sec. 5 range algorithms: iterator vs Access, distinct, majority", runQ5},
	{"cmp", "Sec. 1 comparison: wavelet trie vs wavelet tree vs B-tree index", runCMP},
	{"abl", "Ablation: RRR-compressed vs plain node bitvectors", runABL},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "smaller sizes for a fast run")
	flag.Parse()

	ids := map[string]experiment{}
	var order []string
	for _, e := range experiments {
		ids[e.id] = e
		order = append(order, e.id)
	}
	var todo []string
	if *exp == "all" {
		todo = order
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if _, ok := ids[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %s\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			todo = append(todo, id)
		}
	}
	sort.SliceStable(todo, func(i, j int) bool {
		return indexOf(order, todo[i]) < indexOf(order, todo[j])
	})
	for _, id := range todo {
		e := ids[id]
		fmt.Printf("\n================ %s — %s ================\n", strings.ToUpper(e.id), e.desc)
		e.run(*quick)
	}
}

func indexOf(ss []string, s string) int {
	for i, x := range ss {
		if x == s {
			return i
		}
	}
	return -1
}
