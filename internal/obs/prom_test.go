package obs

import (
	"strings"
	"testing"
)

func TestPrometheusCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("wt_reqs_total", "Requests served.").Add(3)
	r.NewGaugeFunc("wt_depth", "Queue depth.", func() int64 { return 2 })
	out := r.TextSnapshot()
	for _, want := range []string{
		"# HELP wt_reqs_total Requests served.\n",
		"# TYPE wt_reqs_total counter\n",
		"wt_reqs_total 3\n",
		"# TYPE wt_depth gauge\n",
		"wt_depth 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusSortedByName(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("wt_zzz_total", "")
	r.NewCounter("wt_aaa_total", "")
	out := r.TextSnapshot()
	if strings.Index(out, "wt_aaa_total") > strings.Index(out, "wt_zzz_total") {
		t.Fatalf("metrics not sorted by name:\n%s", out)
	}
}

func TestPrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wt_lat_seconds", "Latency.", 1)
	h.Observe(0) // bucket 0, bound 0
	h.Observe(3) // bucket 2, bound 3
	h.Observe(3)
	out := r.TextSnapshot()
	// Buckets are cumulative, le-labeled, with +Inf carrying the count.
	for _, want := range []string{
		"# TYPE wt_lat_seconds histogram\n",
		`wt_lat_seconds_bucket{le="0"} 1` + "\n",
		`wt_lat_seconds_bucket{le="1"} 1` + "\n",
		`wt_lat_seconds_bucket{le="3"} 3` + "\n",
		`wt_lat_seconds_bucket{le="+Inf"} 3` + "\n",
		"wt_lat_seconds_sum 6\n",
		"wt_lat_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Trailing empty buckets are elided: nothing past le="3" but +Inf.
	if strings.Contains(out, `le="7"`) {
		t.Errorf("exposition contains unobserved trailing bucket:\n%s", out)
	}
}

func TestPrometheusEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("wt_empty_seconds", "", 1)
	out := r.TextSnapshot()
	for _, want := range []string{
		`wt_empty_seconds_bucket{le="+Inf"} 0` + "\n",
		"wt_empty_seconds_sum 0\n",
		"wt_empty_seconds_count 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("empty histogram missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("wt_op_seconds", "Per-op latency.", "op", 1)
	v.With("rank").Observe(1)
	v.With("access").Observe(0)
	out := r.TextSnapshot()
	for _, want := range []string{
		`wt_op_seconds_bucket{op="rank",le="1"} 1`,
		`wt_op_seconds_bucket{op="rank",le="+Inf"} 1`,
		`wt_op_seconds_sum{op="rank"} 1`,
		`wt_op_seconds_count{op="access"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// One # TYPE header for the whole family, not one per child.
	if strings.Count(out, "# TYPE wt_op_seconds histogram") != 1 {
		t.Errorf("family header count wrong:\n%s", out)
	}
	// Children render in sorted label order.
	if strings.Index(out, `op="access"`) > strings.Index(out, `op="rank"`) {
		t.Errorf("vec children not sorted by label value:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := formatFloat(3); got != "3" {
		t.Errorf("formatFloat(3) = %q", got)
	}
	if got := formatFloat(0.25); got != "0.25" {
		t.Errorf("formatFloat(0.25) = %q", got)
	}
}

func TestEscapeHelp(t *testing.T) {
	if got := escapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("escapeHelp = %q", got)
	}
}
