package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: one bucket per power of two of
// an int64 observation, plus bucket 0 for the value 0. Bucket i (i ≥ 1)
// holds observations v with bits.Len64(v) == i, i.e. 2^(i-1) ≤ v < 2^i.
const histBuckets = 65

// Histogram is a log₂-bucketed latency/size histogram. Observe is
// lock-free: one bits.Len64, two atomic adds. There is no
// separate count word — the count is the sum of the buckets, so a
// snapshot's count/bucket consistency holds by construction rather
// than by synchronization.
type Histogram struct {
	name, help string
	// scale multiplies bucket bounds and the sum at exposition time —
	// 1e-9 turns nanosecond observations into Prometheus-conventional
	// seconds without touching the hot path.
	scale   float64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram registers (or returns the existing) histogram under
// name. scale converts raw observed units to exposition units (use
// 1e-9 for nanosecond timings, 1 for counts/bytes).
func (r *Registry) NewHistogram(name, help string, scale float64) *Histogram {
	return r.register(name, &Histogram{name: name, help: help, scale: scale}).(*Histogram)
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the nanoseconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(now().Sub(t0).Nanoseconds()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricKind() string { return "histogram" }

// HistSnapshot is a point-in-time copy of a histogram. Count is derived
// as the sum of Buckets, so sum-of-buckets == Count always holds, even
// when the snapshot raced concurrent Observe calls.
type HistSnapshot struct {
	// Count is the number of observations (== the sum of Buckets).
	Count int64
	// Sum is the sum of raw observed values. It is read from a separate
	// atomic than the buckets, so under concurrent writers it may lead
	// or lag Count by in-flight observations.
	Sum int64
	// Buckets[i] counts observations v with bits.Len64(v) == i.
	Buckets [histBuckets]int64
	// Scale converts raw units to exposition units (see NewHistogram).
	Scale float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Scale: h.scale, Sum: h.sum.Load()}
	for i := range h.buckets {
		b := h.buckets[i].Load()
		s.Buckets[i] = b
		s.Count += b
	}
	return s
}

// bucketBound returns the inclusive upper bound of bucket i in raw
// units: 0 for bucket 0, 2^i − 1 otherwise.
func bucketBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64 >> (64 - 63) // 2^63-1, the int64 ceiling
	}
	return 1<<uint(i) - 1
}

// scaleOrOne treats a zero Scale (zero-value snapshot) as 1.
func (s HistSnapshot) scaleOrOne() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}
