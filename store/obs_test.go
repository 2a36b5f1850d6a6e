package store_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/store"
)

// TestStoreMetricsRecorded drives flush/compact/query traffic and
// checks the engine-wide series actually moved — the wiring test for
// the wal/flush/compact/read instrumentation.
func TestStoreMetricsRecorded(t *testing.T) {
	before := obs.Default().TextSnapshot()
	seq := workload.URLLog(200, 3, workload.DefaultURLConfig())
	dir := t.TempDir()
	s, err := store.Open(dir, &store.Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, v := range seq {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Access(0)
	after := obs.Default().TextSnapshot()
	if before == after {
		t.Fatal("metrics snapshot unchanged by store activity")
	}
	for _, name := range []string{
		"wt_wal_appended_records_total",
		"wt_flushes_total",
		"wt_flush_seconds_count",
	} {
		if !strings.Contains(after, name) {
			t.Errorf("metrics snapshot missing %s", name)
		}
	}
}
