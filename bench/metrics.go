package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDecl is one declared metric. Bound is set on end-to-end metrics
// only: the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the served stack sees. Every workload
// reports every one of them (see README.md for what an "op" is on
// ingest). The timing bounds are the widest the driver allows because
// this sandbox's host noise needs them (README.md, "Why the time bounds
// are 0.25"). Space is deterministic, so its bound is a budget, not a
// noise allowance: 0.20 is the ROADMAP's "≤ 1.2× today's bits/elem".
var endToEnd = []metricDecl{
	{"setup_s", "s", lower, 0.25},
	{"throughput_ops_s", "1/s", higher, 0.25},
	{"cpu_us_per_op", "us", lower, 0.25},
	{"disk_bits_per_elem", "bits", lower, 0.20},
	{"mem_bits_per_elem", "bits", lower, 0.20},
}

// perLayer is the traced run's output: the layer ladder (in-process
// rungs over one dataset, median ns/op), the loopback and gateway
// rungs against a real wtserve, and the workload's own counters from
// the server's /metrics series. The prefix names the layer's module.
var perLayer = []metricDecl{
	// internal/rrr, internal/bitvec: n = 2^20 bits, densities 0.5 and 0.05 averaged.
	{Name: "rrr.rank1_ns", Unit: "ns", Better: lower},
	{Name: "rrr.select1_ns", Unit: "ns", Better: lower},
	{Name: "rrr.access_ns", Unit: "ns", Better: lower},
	{Name: "rrr.bits_per_bit", Unit: "bits", Better: lower},
	// internal/appendbv
	{Name: "appendbv.append_ns", Unit: "ns", Better: lower},
	{Name: "appendbv.rank1_ns", Unit: "ns", Better: lower},
	// internal/succinct, internal/dfuds: pre-encoded bitstr arguments.
	{Name: "succinct.access_ns", Unit: "ns", Better: lower},
	{Name: "succinct.rank_ns", Unit: "ns", Better: lower},
	{Name: "succinct.select_ns", Unit: "ns", Better: lower},
	{Name: "succinct.rankprefix_ns", Unit: "ns", Better: lower},
	{Name: "succinct.iterate_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "succinct.build_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "succinct.bits_per_elem", Unit: "bits", Better: lower},
	{Name: "succinct.bits_over_lb", Unit: "ratio", Better: lower},
	// internal/core AppendOnly
	{Name: "core.append_ns", Unit: "ns", Better: lower},
	{Name: "core.access_ns", Unit: "ns", Better: lower},
	{Name: "core.rank_ns", Unit: "ns", Better: lower},
	{Name: "core.bits_per_elem", Unit: "bits", Better: lower},
	// root package: the succinct rung plus string↔BitString conversion.
	{Name: "wavelettrie.frozen_access_ns", Unit: "ns", Better: lower},
	{Name: "wavelettrie.frozen_rank_ns", Unit: "ns", Better: lower},
	{Name: "wavelettrie.frozen_select_ns", Unit: "ns", Better: lower},
	{Name: "wavelettrie.frozen_rankprefix_ns", Unit: "ns", Better: lower},
	{Name: "wavelettrie.frozen_rank_allocs", Unit: "count", Better: lower},
	{Name: "wavelettrie.appendonly_append_ns", Unit: "ns", Better: lower},
	{Name: "wavelettrie.freeze_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "wavelettrie.frozen_load_mapped_us", Unit: "us", Better: lower},
	// store.Store / Snapshot: plain store with columns, several generations.
	{Name: "store.snapshot_access_ns", Unit: "ns", Better: lower},
	{Name: "store.snapshot_rank_ns", Unit: "ns", Better: lower},
	{Name: "store.snapshot_select_ns", Unit: "ns", Better: lower},
	{Name: "store.snapshot_countprefix_ns", Unit: "ns", Better: lower},
	{Name: "store.snapshot_rankprefix_ns", Unit: "ns", Better: lower},
	{Name: "store.snapshot_iterateprefix_ns_per_match", Unit: "ns", Better: lower},
	{Name: "store.append_ns_per_value", Unit: "ns", Better: lower},
	{Name: "store.recover_ms", Unit: "ms", Better: lower},
	{Name: "store.compact_full_s", Unit: "s", Better: lower},
	// …and the workload's own store counters over its timed phase.
	{Name: "store.flush_count", Unit: "count", Better: lower},
	{Name: "store.flush_busy_share", Unit: "ratio", Better: lower},
	{Name: "store.compact_count", Unit: "count", Better: lower},
	{Name: "store.compact_busy_share", Unit: "ratio", Better: lower},
	{Name: "store.wal_bytes_per_value", Unit: "bytes", Better: lower},
	{Name: "store.write_amp", Unit: "ratio", Better: lower},
	{Name: "store.filter_negative_share", Unit: "ratio", Better: higher},
	{Name: "store.generations_end", Unit: "count", Better: lower},
	// store/sharded.go, router.go, shardsnap.go: 2 shards, same data.
	{Name: "sharded.snapshot_access_ns", Unit: "ns", Better: lower},
	{Name: "sharded.snapshot_rank_ns", Unit: "ns", Better: lower},
	{Name: "sharded.snapshot_countprefix_ns", Unit: "ns", Better: lower},
	{Name: "sharded.router_probe_ns", Unit: "ns", Better: lower},
	{Name: "sharded.router_bits_per_elem", Unit: "bits", Better: lower},
	{Name: "sharded.append_ns_per_value", Unit: "ns", Better: lower},
	// store/column.go, colwrite.go
	{Name: "column.row_ns", Unit: "ns", Better: lower},
	{Name: "column.countwhere_ns", Unit: "ns", Better: lower},
	{Name: "column.iteratewhere_ns_per_match", Unit: "ns", Better: lower},
	{Name: "column.bits_per_row", Unit: "bits", Better: lower},
	{Name: "column.ingest_rows_ratio", Unit: "ratio", Better: lower},
	// server/, cmd/wtserve: one client against a wtserve on the ladder's
	// store — the loopback rung — then the workload's own server.
	{Name: "server.wire_us", Unit: "us", Better: lower},
	{Name: "server.loopback_access_us", Unit: "us", Better: lower},
	{Name: "server.loopback_rank_us", Unit: "us", Better: lower},
	{Name: "server.loopback_select_us", Unit: "us", Better: lower},
	{Name: "server.loopback_countprefix_us", Unit: "us", Better: lower},
	{Name: "server.loopback_rankprefix_us", Unit: "us", Better: lower},
	{Name: "server.loopback_scanprefix_us", Unit: "us", Better: lower},
	{Name: "server.loopback_scanwhere_us", Unit: "us", Better: lower},
	{Name: "server.loopback_append_us", Unit: "us", Better: lower},
	{Name: "server.handler_read_us", Unit: "us", Better: lower},
	{Name: "server.handler_append_us", Unit: "us", Better: lower},
	{Name: "server.procs1_throughput_ratio", Unit: "ratio", Better: higher},
	{Name: "server.values_per_commit", Unit: "count", Better: higher},
	{Name: "server.commit_busy_share", Unit: "ratio", Better: lower},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "server.cache_invalidations", Unit: "count", Better: lower},
	{Name: "server.op_p50_us", Unit: "us", Better: lower},
	{Name: "server.op_p90_us", Unit: "us", Better: lower},
	{Name: "server.op_p99_us", Unit: "us", Better: lower},
	{Name: "server.op_p999_us", Unit: "us", Better: lower},
	{Name: "server.rss_mb", Unit: "MiB", Better: lower},
	{Name: "server.trace_overhead_ratio", Unit: "ratio", Better: higher},
	// server/http.go: keep-alive gateway p50 minus binary-protocol p50.
	{Name: "http.access_added_us", Unit: "us", Better: lower},
	{Name: "http.count_added_us", Unit: "us", Better: lower},
	{Name: "http.countwhere_us", Unit: "us", Better: lower},
	{Name: "http.append_added_us", Unit: "us", Better: lower},
	// server/repl.go, follower.go
	{Name: "repl.ingest_ratio", Unit: "ratio", Better: higher},
	{Name: "repl.lag_records_max", Unit: "count", Better: lower},
	{Name: "repl.catchup_s", Unit: "s", Better: lower},
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// checkManifest refuses to run when BENCHMARK.json and the program
// disagree about what is measured: a metric printed but not declared
// (or the reverse), a different unit, direction or bound, or a
// different workload list.
func checkManifest(m *manifest) error {
	var diffs []string
	cmp := func(section string, want, have []metricDecl) {
		decl := map[string]metricDecl{}
		for _, d := range have {
			decl[d.Name] = d
		}
		for _, w := range want {
			h, ok := decl[w.Name]
			switch {
			case !ok:
				diffs = append(diffs, fmt.Sprintf("%s: %s is printed but not declared", section, w.Name))
			case h != w:
				diffs = append(diffs, fmt.Sprintf("%s: %s declared as %+v, printed as %+v", section, w.Name, h, w))
			}
			delete(decl, w.Name)
		}
		for name := range decl {
			diffs = append(diffs, fmt.Sprintf("%s: %s is declared but not printed", section, name))
		}
	}
	cmp("end_to_end", endToEnd, m.EndToEnd)
	cmp("per_layer", perLayer, m.PerLayer)
	if len(m.Workloads) != len(workloads) {
		diffs = append(diffs, fmt.Sprintf("workloads: %d declared, %d implemented", len(m.Workloads), len(workloads)))
	} else {
		for i, w := range m.Workloads {
			if w.Name != workloads[i].name {
				diffs = append(diffs, fmt.Sprintf("workloads: %q declared where %q is implemented", w.Name, workloads[i].name))
			}
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("BENCHMARK.json does not match the benchmark:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}
