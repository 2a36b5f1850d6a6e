package obs

import (
	"math"
	"testing"
)

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wt_place_hist", "", 1)
	// Value 0 lands in bucket 0; v ≥ 1 lands in bucket bits.Len64(v),
	// i.e. bucket i holds 2^(i-1) ≤ v < 2^i. Negatives clamp to 0.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {-5, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	s := h.Snapshot()
	want := map[int]int64{}
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
}

func TestBucketBound(t *testing.T) {
	if bucketBound(0) != 0 {
		t.Errorf("bucketBound(0) = %d", bucketBound(0))
	}
	if bucketBound(1) != 1 || bucketBound(4) != 15 {
		t.Errorf("bucketBound(1,4) = %d,%d, want 1,15", bucketBound(1), bucketBound(4))
	}
	if bucketBound(64) != math.MaxInt64 {
		t.Errorf("bucketBound(64) = %d, want MaxInt64", bucketBound(64))
	}
}
