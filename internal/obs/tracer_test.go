package obs

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer(8)
	tr.Start("flush").End("bytes=42")
	got := tr.Dump()
	if len(got) != 1 {
		t.Fatalf("Dump() returned %d spans, want 1", len(got))
	}
	r := got[0]
	if r.Name != "flush" || r.Detail != "bytes=42" || r.Seq != 1 {
		t.Fatalf("record = %+v", r)
	}
	// DurationNS comes off the monotonic clock, the UnixNano bounds off
	// the wall clock — consistent in ordering, not bit-equal.
	if r.EndUnixNano < r.StartUnixNano || r.DurationNS < 0 {
		t.Fatalf("span bounds inconsistent: %+v", r)
	}
	if tr.seq != 1 {
		t.Fatalf("%d spans recorded, want 1", tr.seq)
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start("ev").End(fmt.Sprintf("i=%d", i))
	}
	got := tr.Dump()
	if len(got) != 4 {
		t.Fatalf("Dump() returned %d spans, want ring capacity 4", len(got))
	}
	// Oldest-first, holding the last four spans (seqs 7..10).
	for i, r := range got {
		if want := uint64(7 + i); r.Seq != want {
			t.Errorf("span %d: seq=%d, want %d", i, r.Seq, want)
		}
		if want := fmt.Sprintf("i=%d", 6+i); r.Detail != want {
			t.Errorf("span %d: detail=%q, want %q", i, r.Detail, want)
		}
	}
	if tr.seq != 10 {
		t.Fatalf("%d spans recorded, want 10", tr.seq)
	}
}

func TestTracerDumpJSON(t *testing.T) {
	tr := NewTracer(4)
	tr.Start("compact").End("victims=2")
	data, err := tr.DumpJSON()
	if err != nil {
		t.Fatal(err)
	}
	var spans []SpanRecord
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("DumpJSON is not valid JSON: %v\n%s", err, data)
	}
	if len(spans) != 1 || spans[0].Name != "compact" || spans[0].Detail != "victims=2" {
		t.Fatalf("round-tripped spans = %+v", spans)
	}
}

func TestTracerMinCapacity(t *testing.T) {
	tr := NewTracer(0)
	tr.Start("a").End("")
	tr.Start("b").End("")
	got := tr.Dump()
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("capacity-clamped tracer Dump() = %+v, want just the last span", got)
	}
}
