package obs

import (
	"encoding/json"
	"sync"
	"time"
)

// DefaultTracer is the process-wide event tracer. Engine code records
// coarse-grained lifecycle events here (flushes, compactions, group
// commits, slow ops) — not per-request spans — so the ring covers a
// useful window of history at negligible cost.
var DefaultTracer = NewTracer(4096)

// SpanRecord is one completed span in the tracer's ring.
type SpanRecord struct {
	// Seq is the span's position in the tracer's lifetime (monotonic,
	// starting at 1); gaps in a dump mean the ring wrapped.
	Seq uint64 `json:"seq"`
	// Name identifies the event class (e.g. "flush", "compact").
	Name string `json:"name"`
	// Detail is an optional free-form annotation set at End.
	Detail string `json:"detail,omitempty"`
	// StartUnixNano and EndUnixNano are wall-clock span bounds.
	StartUnixNano int64 `json:"start_unix_nano"`
	EndUnixNano   int64 `json:"end_unix_nano"`
	// DurationNS is EndUnixNano − StartUnixNano, denormalized for
	// humans reading the JSON dump.
	DurationNS int64 `json:"duration_ns"`
}

// Tracer keeps the most recent completed spans in a fixed-size ring.
// Start/End are cheap (a clock read; End adds one short mutex hold).
type Tracer struct {
	mu  sync.Mutex
	seq uint64
	// ring holds the last len(ring) completed spans; next is the slot
	// the next End writes (the ring wraps by overwriting the oldest).
	ring  []SpanRecord
	next  int
	count int
}

// NewTracer returns a tracer retaining the last capacity completed
// spans (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{ring: make([]SpanRecord, capacity)}
}

// Span is an in-flight event; call End (or Endf) exactly once.
type Span struct {
	t     *Tracer
	name  string
	start time.Time
}

// Start opens a span.
func (t *Tracer) Start(name string) Span { return Span{t: t, name: name, start: now()} }

// End completes the span with an optional detail annotation and pushes
// it into the ring.
func (sp Span) End(detail string) {
	end := now()
	t := sp.t
	t.mu.Lock()
	t.seq++
	t.ring[t.next] = SpanRecord{
		Seq:           t.seq,
		Name:          sp.name,
		Detail:        detail,
		StartUnixNano: sp.start.UnixNano(),
		EndUnixNano:   end.UnixNano(),
		DurationNS:    end.Sub(sp.start).Nanoseconds(),
	}
	t.next = (t.next + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	}
	t.mu.Unlock()
}

// Dump returns the retained spans oldest-first.
func (t *Tracer) Dump() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, 0, t.count)
	start := (t.next - t.count + len(t.ring)) % len(t.ring)
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// DumpJSON renders the retained spans as indented JSON, oldest-first —
// the payload behind the gateway's /debug/trace.
func (t *Tracer) DumpJSON() ([]byte, error) {
	return json.MarshalIndent(t.Dump(), "", "  ")
}
