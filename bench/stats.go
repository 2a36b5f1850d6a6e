package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// linear interpolation between closest ranks; NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// quartiles matches Python's statistics.quantiles(vals, n=4) — the
// "exclusive" method the driver judges run-to-run spread with — so a
// spread computed here is the spread the driver will see. It needs at
// least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median: the
// driver's steadiness figure. One value has no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// latencies summarises one op class's round trips.
type latencies struct {
	N      int     `json:"n"`
	P50us  float64 `json:"p50_us"`
	IQRus  float64 `json:"iqr_us"`
	P90us  float64 `json:"p90_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
}

// summarize sorts ns in place and reports its percentiles in µs.
func summarize(ns []float64) latencies {
	sort.Float64s(ns)
	us := func(q float64) float64 { return quantile(ns, q) / 1e3 }
	return latencies{N: len(ns), P50us: us(0.5), IQRus: us(0.75) - us(0.25),
		P90us: us(0.9), P99us: us(0.99), P999us: us(0.999)}
}
