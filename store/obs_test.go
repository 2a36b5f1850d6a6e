package store_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/store"
)

// buildStore runs one fixed append/flush/compact schedule and returns
// the resulting export snapshot bytes.
func buildStore(t *testing.T, seq []string) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := store.Open(dir, &store.Options{FlushThreshold: 1 << 20, DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, v := range seq {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 79, 159, 239:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		case 199:
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInstrumentationIsInert runs the same store workload with the
// observability surface live and disabled and demands bit-identical
// export snapshots: metrics and tracing observe the engine, they must
// never steer it.
func TestInstrumentationIsInert(t *testing.T) {
	seq := workload.URLLog(300, 7, workload.DefaultURLConfig())
	defer obs.SetEnabled(true)
	obs.SetEnabled(true)
	on := buildStore(t, seq)
	obs.SetEnabled(false)
	off := buildStore(t, seq)
	if !bytes.Equal(on, off) {
		t.Fatalf("instrumented and uninstrumented runs diverged: %d vs %d snapshot bytes", len(on), len(off))
	}
}

// TestStoreMetricsRecorded drives flush/compact/query traffic and
// checks the engine-wide series actually moved — the wiring test for
// the wal/flush/compact/read instrumentation.
func TestStoreMetricsRecorded(t *testing.T) {
	obs.SetEnabled(true)
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
