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
//	wtbench -json               # machine-readable suite + config (BENCH_*.json)
//
// Experiments: figs, t1a, t1b, t2a, t2b, t2c, t3a, t3b, t4, t5, t6, q5,
// cmp, abl, ser, store, compact, freeze, shard, router, column. The
// served stack (server, replication, observability overhead) is measured
// by bench/ (go run -C bench . -workload all -trace 1).
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
	{"ser", "Persistence: marshal/load round trip, on-disk size, load vs rebuild", runSER},
	{"store", "Log-structured store: WAL append, concurrent reads, recovery vs rebuild", runSTORE},
	{"compact", "Two-phase compaction: streaming merge throughput, Flush latency under merge", runCOMPACT},
	{"freeze", "Streaming freeze: builder vs materialize+NewStatic peak memory, mmap vs heap Open", runFREEZE},
	{"shard", "Sharded store: multi-writer append scaling, busy-reader latency, recovery", runSHARD},
	{"router", "Frozen wavelet-tree router: succinct bits/elem, frozen vs tail reads, k-way SelectPrefix", runROUTER},
	{"column", "Columnar attachments: payload ingest overhead, predicate pushdown vs scan-and-filter, row reads", runCOLUMN},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "smaller sizes for a fast run")
	jsonOut := flag.Bool("json", false, "emit the benchmark suite (build/query/serialize + store/compact/shard experiments) with its config block as JSON (for BENCH_*.json trajectories); not combinable with -exp")
	flag.Parse()

	if *jsonOut {
		if *exp != "all" {
			fmt.Fprintln(os.Stderr, "wtbench: -json runs its own build/query/serialize suite and cannot be combined with -exp")
			os.Exit(2)
		}
		emitJSON(*quick)
		return
	}

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
