// Package workload generates the synthetic string sequences the
// experiments run on. The paper motivates the Wavelet Trie with query/
// access logs, URL and path sequences, column-oriented storage and social
// graph edge streams (§1) but, being a theory paper, ships no datasets;
// these generators reproduce the statistical properties the analysis
// depends on (see DESIGN.md substitution table):
//
//   - long shared prefixes (hierarchical paths) → small LT(Sset) and
//     small average height h̃ through Patricia path compression;
//   - skewed (Zipf) value frequencies → small nH₀(S);
//   - alphabets that grow over time (new URLs appear mid-stream) → the
//     dynamic-alphabet capability the Wavelet Trie exists for.
//
// All generators are deterministic in their seed.
package workload

import (
	"fmt"
	"math/rand"
)

// URLConfig parameterizes the access-log generator.
type URLConfig struct {
	Hosts       int     // number of distinct hosts
	MaxDepth    int     // maximum path depth below the host
	SegmentFan  int     // distinct segment names per level
	HostSkew    float64 // Zipf s-parameter for host popularity (>1)
	SegmentSkew float64 // Zipf s-parameter for segments (>1)
}

// DefaultURLConfig mirrors a small web access log: few hot hosts, shallow
// hot paths, a long tail.
func DefaultURLConfig() URLConfig {
	return URLConfig{Hosts: 64, MaxDepth: 3, SegmentFan: 16, HostSkew: 1.3, SegmentSkew: 1.2}
}

// URLLog returns n URL-path strings such as "host07.example/a/c" drawn
// with Zipf-distributed hosts and segments. The sequence order plays the
// role of time order.
func URLLog(n int, seed int64, cfg URLConfig) []string {
	r := rand.New(rand.NewSource(seed))
	hostZ := rand.NewZipf(r, cfg.HostSkew, 1, uint64(cfg.Hosts-1))
	segZ := rand.NewZipf(r, cfg.SegmentSkew, 1, uint64(cfg.SegmentFan-1))
	out := make([]string, n)
	for i := range out {
		host := hostZ.Uint64()
		s := fmt.Sprintf("host%02d.example", host)
		depth := r.Intn(cfg.MaxDepth + 1)
		for d := 0; d < depth; d++ {
			s += fmt.Sprintf("/%c%d", 'a'+rune(d), segZ.Uint64())
		}
		out[i] = s
	}
	return out
}

// ZipfStrings returns n values drawn Zipf(s=skew) from a pool of sigma
// distinct strings ("v0", "v1", …) — a typical low-cardinality database
// column (status codes, country codes, enum fields).
func ZipfStrings(n, sigma int, skew float64, seed int64) []string {
	if sigma < 1 {
		panic("workload: sigma must be >= 1")
	}
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, skew, 1, uint64(sigma-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", z.Uint64())
	}
	return out
}

// EdgeStream returns n directed edges "u->v" over a preferential-
// attachment-ish node distribution, modelling the social-network edge
// sequences of §1 ("how did friendship links change during winter
// vacation?").
func EdgeStream(n, nodes int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.2, 1, uint64(nodes-1))
	out := make([]string, n)
	for i := range out {
		u := z.Uint64()
		v := z.Uint64()
		out[i] = fmt.Sprintf("user%04d->user%04d", u, v)
	}
	return out
}

// GrowingAlphabet returns a sequence whose alphabet grows over time: the
// i-th element is drawn from the first 1+i/rate pool entries, so unseen
// values keep arriving throughout the stream. This is the access pattern
// that breaks frozen-alphabet structures (issue (a), §1).
func GrowingAlphabet(n, rate int, seed int64) []string {
	if rate < 1 {
		rate = 1
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		pool := 1 + i/rate
		out[i] = fmt.Sprintf("item/%05d", r.Intn(pool))
	}
	return out
}

// NumericColumn returns n uint64 values from a working alphabet of sigma
// clustered values inside a 2^64 universe — the §6 scenario.
func NumericColumn(n, sigma int, seed int64) []uint64 {
	r := rand.New(rand.NewSource(seed))
	base := r.Uint64()
	z := rand.NewZipf(r, 1.4, 1, uint64(sigma-1))
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + z.Uint64() // consecutive values: worst case unhashed
	}
	return out
}

// URLPool returns a pool of exactly poolSize distinct URL-path strings.
// Sampling from a fixed pool keeps Sset (and hence h_s) constant while n
// grows — required when validating that static/append-only query time is
// independent of n (experiments T1a/T2b).
func URLPool(poolSize int, seed int64, cfg URLConfig) []string {
	n := poolSize * 4
	for {
		pool := Distinct(URLLog(n, seed, cfg))
		if len(pool) >= poolSize {
			return pool[:poolSize]
		}
		n *= 2
	}
}

// FromPool draws n values Zipf(skew) from the given pool, hottest first.
func FromPool(n int, pool []string, skew float64, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, skew, 1, uint64(len(pool)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = pool[z.Uint64()]
	}
	return out
}

// Distinct returns the distinct values of seq in first-appearance order.
func Distinct(seq []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range seq {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
