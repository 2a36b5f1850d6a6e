package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	wavelettrie "repro"
	"repro/server"
	"repro/store"
)

// testSizes is the 2^12-value scale the tests run at.
var testSizes = sizes{genLen: 512, gens: 8, tail: 64, mixedGens: 4,
	ingestPool: 1 << 13, mixedPool: 1 << 12, prefixes: 64, hotValues: 16, ladderLen: 1 << 10}

func TestManifestMatchesProgram(t *testing.T) {
	m, err := loadManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkManifest(m); err != nil {
		t.Fatal(err)
	}
	m.PerLayer = m.PerLayer[1:]
	m.EndToEnd[0].Bound = 0.01
	err = checkManifest(m)
	if err == nil || !strings.Contains(err.Error(), "printed but not declared") || !strings.Contains(err.Error(), "setup_s declared as") {
		t.Fatalf("a drifted manifest must be refused, got %v", err)
	}
}

func TestQuantiles(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); !near(got, 5.5) {
		t.Errorf("median of 1..10 = %v", got)
	}
	if got := quantile(s, 0.9); !near(got, 9.1) {
		t.Errorf("p90 of 1..10 = %v", got)
	}
	if got := quantile(s[:1], 0.99); got != 1 {
		t.Errorf("p99 of one value = %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing must be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4], n=4) == [1.0, 3.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{3, 1, 4}); !near(q1, 1) || !near(q2, 3) || !near(q3, 4) {
		t.Errorf("quartiles of 3,1,4 = %v %v %v", q1, q2, q3)
	}
	if got := spread(s); !near(got, 1) {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
	if spread([]float64{7}) != 0 {
		t.Error("one value has no spread")
	}
	l := summarize([]float64{4000, 1000, 3000, 2000})
	if l.N != 4 || !near(l.P50us, 2.5) || !near(l.IQRus, 1.5) {
		t.Errorf("summarize = %+v", l)
	}
	phase := &phaseResult{wall: 3200 * time.Millisecond,
		ends: []float64{0.1e9, 0.9e9, 1.5e9, 2.5e9, 2.6e9, 3.2e9},
		lats: []float64{1000, 3000, 5000, 7000, 9000, 11000}}
	if rates := windowed(phase, time.Second, 2); fmt.Sprint(rates) != "[4 2 4]" {
		t.Errorf("windows: rates %v (the partial last window is dropped)", rates)
	}
	if hi, lo := quiet(s, higher), quiet(s, lower); !near(hi, 9.1) || !near(lo, 1.9) {
		t.Errorf("quiet tenth of 1..10: %v when higher is better, %v when lower is; want 9.1 and 1.9", hi, lo)
	}
	phase.start = time.Unix(100, 0)
	at := func(s float64) time.Time { return phase.start.Add(time.Duration(s * float64(time.Second))) }
	cpu := cpuPerOp([]cpuSample{{at(-0.5), 1}, {at(1), 2}, {at(2), 2.5}, {at(3), 3}}, phase, 2)
	if fmt.Sprint(cpu) != "[250000 125000]" {
		t.Errorf("cpu per op = %v (an interval that starts before the phase is dropped)", cpu)
	}
}

// stream renders the first n ops of every client of a workload.
func stream(w *workloadSpec, seed int64, n int) string {
	gens, tail, app := w.layout(testSizes)
	d := newDataset(seed, gens*testSizes.genLen+tail, app, w.columns, testSizes)
	var b bytes.Buffer
	for c := 0; c < clients; c++ {
		g := newOpGen(d, w.mix, seed, c, clients, w.batch)
		for i := 0; i < n; i++ {
			o := g.next()
			fmt.Fprintln(&b, c, o)
			if o.kind == opAppend {
				vs, rows := g.appendBatch(o)
				fmt.Fprintln(&b, vs, rows)
			}
		}
	}
	return b.String()
}

func TestOpStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, other := stream(w, 1, 500), stream(w, 1, 500), stream(w, 2, 500)
		if a != again {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same op stream", w.name)
		}
		for _, m := range w.mix {
			if !strings.Contains(a, " "+m.kind.String()+" ") {
				t.Errorf("%s: no %s op in 1000 draws", w.name, m.kind)
			}
		}
	}
}

// TestOracleAgainstAppendOnly checks the flat oracle's answer for every
// op class against the library's own append-only Wavelet Trie.
func TestOracleAgainstAppendOnly(t *testing.T) {
	const n = 1 << 10
	d := newDataset(3, n, 0, true, testSizes)
	wt := wavelettrie.NewAppendOnlyFrom(d.seq)
	g := newOpGen(d, nil, 3, 0, 1, 0)
	for k := opAccess; k < numKinds; k++ {
		for i := 0; i < 200; i++ {
			o := g.draw(k)
			var got, want any
			switch k {
			case opRow:
				continue // rows are generated, not derived: nothing to cross-check
			case opAccess:
				got, want = d.seq[o.pos], wt.Access(o.pos)
			case opRank:
				got, want = d.rank(o.s, o.pos), wt.Rank(o.s, o.pos)
			case opCount:
				got, want = d.count(o.s), wt.Count(o.s)
			case opSelect:
				pos, ok := d.sel(o.s, o.pos)
				wpos, wok := wt.Select(o.s, o.pos)
				got, want = fmt.Sprint(pos, ok), fmt.Sprint(wpos, wok)
			case opCountPrefix:
				got, want = d.countPrefix(o.pfx), wt.CountPrefix(o.s)
			case opRankPrefix:
				got, want = d.rankPrefix(o.pfx, o.pos), wt.RankPrefix(o.s, o.pos)
			case opSelectPrefix:
				pos, ok := d.selectPrefix(o.pfx, o.pos)
				wpos, wok := wt.SelectPrefix(o.s, o.pos)
				got, want = fmt.Sprint(pos, ok), fmt.Sprint(wpos, wok)
			case opScanPrefix:
				var page, wpage []int
				for j := o.pos; j < d.countPrefix(o.pfx) && len(page) < prefixPage; j++ {
					page = append(page, d.poolPos[o.pfx][j])
					pos, _ := wt.SelectPrefix(o.s, j)
					wpage = append(wpage, pos)
				}
				got, want = fmt.Sprint(page), fmt.Sprint(wpage)
			case opScanWhere:
				// The first page of prefix matches whose generated row
				// passes the predicate.
				page := d.poolErr[o.pfx]
				if len(page) > wherePage {
					page = page[:wherePage]
				}
				var wpage []int
				for idx := 0; len(wpage) < len(page); idx++ {
					pos, ok := wt.SelectPrefix(o.s, idx)
					if !ok {
						break
					}
					if d.rows[pos][0].U64() >= errStatus {
						wpage = append(wpage, pos)
					}
				}
				got, want = fmt.Sprint(page), fmt.Sprint(wpage)
			case opScan:
				got, want = fmt.Sprint(d.seq[o.pos:o.pos+scanPage]), fmt.Sprint(wt.Slice(o.pos, o.pos+scanPage))
			}
			if got != want {
				t.Fatalf("%v: oracle says %v, AppendOnly says %v", o, got, want)
			}
		}
	}
	for i, p := range d.pool {
		if len(d.poolPos[i]) == 0 {
			t.Errorf("pool prefix %q matches nothing", p)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	thr := metricDecl{Name: "throughput_ops_s", Better: higher, Bound: 0.10}
	lat := metricDecl{Name: "cpu_us_per_op", Better: lower, Bound: 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b []float64
		want string
	}{
		{lat, []float64{100}, []float64{100}, verdictSame},
		{lat, []float64{100}, []float64{109}, verdictSame},
		{lat, []float64{100}, []float64{111}, verdictWorse},
		{lat, []float64{100}, []float64{80}, verdictBetter},
		{thr, []float64{100}, []float64{80}, verdictWorse},
		{thr, []float64{100}, []float64{120}, verdictBetter},
		{lat, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictWorse},
		{lat, []float64{100, 101, 102}, []float64{90, 91, 92}, verdictBetter},
		{lat, []float64{100, 101, 102}, []float64{100.5, 101, 101.5}, verdictSame},
		// Spread wider than the bound with overlapping runs decides nothing…
		{lat, []float64{80, 100, 130}, []float64{95, 115, 140}, verdictUnresolved},
		// …unless every run of one side beats every run of the other.
		{lat, []float64{80, 100, 130}, []float64{140, 170, 200}, verdictWorse},
		{metricDecl{Name: "rrr.rank1_ns", Better: lower}, []float64{10}, []float64{30}, verdictInfo},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s A=%v B=%v: %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}

	rec := func(thr float64, failed int) *record {
		return &record{Workload: "point_read", Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{
			"throughput_ops_s": {thr, "1/s"}, "cpu_us_per_op": {100, "us"}, "rrr.rank1_ns": {10, "ns"}}}
	}
	var out bytes.Buffer
	if code := compareRecords(&out, []*record{rec(1000, 0)}, []*record{rec(1000, 0)}); code != 0 || strings.Contains(out.String(), verdictWorse+" (") {
		t.Errorf("a result against itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(&out, []*record{rec(1000, 0)}, []*record{rec(700, 0)}); code != 1 ||
		!strings.Contains(out.String(), "0.700") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("throughput down 30%% against a 25%% bound: exit %d\n%s", code, out.String())
	}
	if code := compareRecords(&out, []*record{rec(1000, 0)}, []*record{rec(1000, 3)}); code != 1 {
		t.Errorf("a higher failed share must exit non-zero, got %d", code)
	}
}

// inProcess serves a prepared directory from inside the test binary.
func inProcess(cfg serverConfig) (*target, error) {
	cols, err := store.ParseColumns(cfg.columns)
	if err != nil {
		return nil, err
	}
	opts := store.Options{Columns: cols}
	var backend server.Backend
	var closeStore func() error
	if cfg.shards > 0 {
		ss, err := store.OpenSharded(cfg.dir, &store.ShardedOptions{Shards: cfg.shards, Store: opts})
		if err != nil {
			return nil, err
		}
		backend, closeStore = server.ForSharded(ss), ss.Close
	} else {
		st, err := store.Open(cfg.dir, &opts)
		if err != nil {
			return nil, err
		}
		backend, closeStore = server.ForStore(st), st.Close
	}
	srv := server.New(backend, &server.Options{CacheEntries: pinnedCache})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeStore()
		return nil, err
	}
	go srv.Serve(l)
	return &target{addr: l.Addr().String(), stop: func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		closeStore()
	}}, nil
}

// TestWorkloadSmoke runs each workload at 2^12 values against an
// in-process server: every reply must check out.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server; skipped with -short")
	}
	type smoke struct {
		w     *workloadSpec
		trace bool
	}
	// One traced run is enough to cover the ladder's in-process rungs.
	runs := []smoke{{findWorkload("mixed"), true}}
	for _, w := range workloads {
		runs = append(runs, smoke{w, false})
	}
	for _, sm := range runs {
		w, base := sm.w, t.TempDir()
		rc := &runConfig{spec: w, seed: 5, timed: 300 * time.Millisecond, warmup: 50 * time.Millisecond,
			setups: 1, trace: sm.trace, sz: testSizes, outDir: base, launch: inProcess,
			mkdir: func(name string) (string, error) { return os.MkdirTemp(base, name+"-") }}
		rec, err := run(rc)
		if err != nil {
			t.Fatalf("%s (trace %v): %v", w.name, rc.trace, err)
		}
		if rec.Failed != 0 || !rec.Correct || rec.Attempted < 50 {
			t.Errorf("%s (trace %v): attempted %d, failed %d: %v", w.name, rc.trace, rec.Attempted, rec.Failed, rec.Failures)
		}
		for _, m := range w.mix {
			if rec.Classes[m.kind.String()].N == 0 {
				t.Errorf("%s: no %s op completed", w.name, m.kind)
			}
		}
		file := base + "/" + w.name + "-seed5.json"
		if rc.trace {
			file = base + "/" + w.name + "-seed5-trace.json"
		}
		if recs, err := loadRecords([]string{file}); err != nil || len(recs) != 1 {
			t.Errorf("%s: reading the record back: %v", w.name, err)
		}
		if !rc.trace {
			if v := rec.Metrics["throughput_ops_s"].Value; !(v > 0) {
				t.Errorf("%s: throughput_ops_s = %v", w.name, v)
			}
		} else if _, ok := rec.Metrics["store.snapshot_rank_ns"]; !ok {
			t.Errorf("%s: the traced run did not climb the ladder", w.name)
		}
	}
}
