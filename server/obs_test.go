package server_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/server"
)

// TestOpMetrics fetches the engine-wide metrics snapshot over the
// binary protocol and checks the series every layer contributes — the
// same text the HTTP gateway serves on /metrics.
func TestOpMetrics(t *testing.T) {
	_, addr := startServer(t, 0, nil, nil)
	c := dial(t, addr)
	if err := c.AppendBatch([]string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count("a"); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE wt_server_requests_total counter",
		`wt_server_op_seconds_bucket{op="append_batch",le=`,
		`wt_server_op_seconds_bucket{op="count",le=`,
		"wt_batcher_batch_size_count",
		"wt_wal_fsync_seconds_count",
		"wt_server_conns_active",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("OpMetrics snapshot missing %q", want)
		}
	}
}

// TestStatsRuntimeInfo checks the Stats reply carries the server's
// runtime sizing, so remote clients can judge throughput numbers.
func TestStatsRuntimeInfo(t *testing.T) {
	_, addr := startServer(t, 0, nil, nil)
	c := dial(t, addr)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.GoMaxProcs < 1 || st.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("GoMaxProcs = %d, want %d", st.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if st.NumCPU < 1 || st.NumCPU != runtime.NumCPU() {
		t.Errorf("NumCPU = %d, want %d", st.NumCPU, runtime.NumCPU())
	}
}

// TestSlowOpLog sets a threshold every op clears and checks the log
// line names the op, its key shape and the visible length of the view
// that served the request (none for an op that pins no view).
func TestSlowOpLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	_, addr := startServer(t, 0, nil, &server.Options{
		SlowOp: time.Nanosecond,
		SlowOpLog: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	c := dial(t, addr)
	if err := c.Append("slow/key"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Rank("slow/key", 1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"slow op", `append "slow/key"`, "view len=-", `rank "slow/key"`, "view len=1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("slow-op log missing %q in:\n%s", want, joined)
		}
	}
}

// TestMetricNamesLint walks every name registered in the process-wide
// registry (this test binary links the store and server metric sets)
// and asserts the wt_ naming invariant plus the presence of each
// layer's keystone series.
func TestMetricNamesLint(t *testing.T) {
	names := obs.Default().Names()
	if len(names) == 0 {
		t.Fatal("default registry is empty")
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if !obs.MetricName.MatchString(n) {
			t.Errorf("metric name %q does not match %s", n, obs.MetricName)
		}
		seen[n] = true
	}
	for _, want := range []string{
		"wt_wal_fsync_seconds",
		"wt_flush_seconds",
		"wt_compact_seconds",
		"wt_mmap_mapped_bytes",
		"wt_server_op_seconds",
		"wt_batcher_batch_size",
		"wt_repl_lag_records",
	} {
		if !seen[want] {
			t.Errorf("registry missing keystone series %s", want)
		}
	}
}
