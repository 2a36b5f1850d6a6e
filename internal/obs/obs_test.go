package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("wt_test_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.NewGaugeFunc("wt_test_gauge", "help", func() int64 { return 5 })
	if out := r.TextSnapshot(); !strings.Contains(out, "wt_test_gauge 5\n") {
		t.Fatalf("gauge missing from exposition:\n%s", out)
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("wt_same", "first")
	b := r.NewCounter("wt_same", "second registration returns the first handle")
	if a != b {
		t.Fatal("re-registering the same name returned a different handle")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("handles from repeated registration do not share state")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("wt_kind", "a counter")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a histogram did not panic")
		}
	}()
	r.NewHistogram("wt_kind", "now a histogram", 1)
}

func TestBadNamePanics(t *testing.T) {
	for _, name := range []string{"requests_total", "wt_Bad", "wt-dash", "wt_", ""} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().NewCounter(name, "")
		}()
	}
	// wt_ prefix plus lowercase snake is the accepted shape.
	NewRegistry().NewCounter("wt_ok_123_total", "")
}

func TestGaugeFuncFirstCallbackWins(t *testing.T) {
	r := NewRegistry()
	r.NewGaugeFunc("wt_fn_gauge", "", func() int64 { return 42 })
	r.NewGaugeFunc("wt_fn_gauge", "", func() int64 { return 0 })
	if out := r.TextSnapshot(); !strings.Contains(out, "wt_fn_gauge 42\n") {
		t.Fatalf("gauge func output missing first callback's value:\n%s", out)
	}
}

func TestSince(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wt_since_seconds", "", 1e-9)
	base := time.Unix(0, 0)
	defer func() { now = time.Now }()
	now = func() time.Time { return base.Add(1000 * time.Nanosecond) }
	h.ObserveSince(base)
	s := h.Snapshot()
	if s.Count != 1 || s.Sum != 1000 {
		t.Fatalf("ObserveSince recorded count=%d sum=%d, want 1/1000", s.Count, s.Sum)
	}
}

// TestConcurrentHistogram hammers one histogram from many goroutines
// (run under -race in CI) and checks the structural invariant the
// design leans on: a snapshot's Count is the sum of its buckets by
// construction, and after all writers join, both match the total
// observation count exactly.
func TestConcurrentHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("wt_conc_hist", "", 1)
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			v := seed
			for i := 0; i < perWorker; i++ {
				v = v*6364136223846793005 + 1442695040888963407 // LCG, deterministic
				h.Observe(v % (1 << 20))
				if i%64 == 0 {
					s := h.Snapshot()
					var sum int64
					for _, b := range s.Buckets {
						sum += b
					}
					if sum != s.Count {
						t.Errorf("mid-flight snapshot: sum of buckets %d != Count %d", sum, s.Count)
						return
					}
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	s := h.Snapshot()
	var sum int64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count || s.Count != workers*perWorker {
		t.Fatalf("final snapshot: sum=%d count=%d, want both %d", sum, s.Count, workers*perWorker)
	}
}
