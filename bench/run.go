package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"repro/server"
)

// clients is the closed loop's width: one goroutine and one connection
// per CPU of the reference box, never more (see README.md, "Closed loop").
const clients = 2

// target is a running server the harness drives. proc is nil when the
// server runs inside the test binary; the process-level measurements
// (CPU, RSS, SIGKILL) then do not apply.
type target struct {
	addr string
	proc *child
	stop func()
}

// launcher starts a server on a prepared directory.
type launcher func(cfg serverConfig) (*target, error)

func (s *scratch) launch(cfg serverConfig) (*target, error) {
	c, err := s.startServer(cfg)
	if err != nil {
		return nil, err
	}
	return &target{addr: c.addr, proc: c, stop: c.stop}, nil
}

// runConfig is one invocation's settings.
type runConfig struct {
	spec    *workloadSpec
	seed    int64
	timed   time.Duration // the measured phase
	warmup  time.Duration // untimed, same mix
	setups  int           // set-up repetitions; their median is setup_s
	trace   bool
	sz      sizes
	outDir  string // "" = write no files
	mkdir   func(name string) (string, error)
	launch  launcher
	scratch *scratch // nil in tests: no ladder servers
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run's self-describing result: what was measured, on
// what, with which pinned settings.
type record struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Seconds     float64                `json:"seconds"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Classes     map[string]latencies   `json:"classes"`        // per op class, timed phase
	WindowMS    int64                  `json:"window_ms"`      // length of one window of the timed phase
	Windows     []float64              `json:"windows_ops_s"`  // throughput of each window
	CPUWindows  []float64              `json:"windows_cpu_us"` // server CPU per op between two CPU samples
	MeanOpsS    float64                `json:"mean_ops_s"`     // completed ops ÷ timed wall
	SetupRuns   []float64              `json:"setup_runs_s"`
	Failures    []string               `json:"failures,omitempty"`
	Env         environment            `json:"env"`
	ServerFlags []string               `json:"server_flags"`
	Sizes       map[string]int         `json:"sizes"`
}

func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check counts one verification step as an attempted op.
func (r *record) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *record) absorb(p *phaseResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, e := range p.errs {
		if len(r.Failures) < 10 {
			r.Failures = append(r.Failures, e)
		}
	}
}

// windowLen is the grain the timed phase is cut into. Half a second holds
// thousands of read ops, or — on ingest — more than one memtable flush.
const windowLen = 500 * time.Millisecond

// quietShare picks the figure a run reports from its windows: the level
// reached or beaten in the least-disturbed tenth of them. The host only
// ever takes cycles away, in bursts of seconds (README.md, "Steadiness"),
// so a run's median window moves with how many bursts it caught, while
// the fast tail moves only when the program does. The median over
// windows is printed beside it.
const quietShare = 0.1

// quiet returns the quietShare quantile of per-window samples from the
// good end: the 90th percentile when higher is better, the 10th when
// lower is.
func quiet(samples []float64, better string) float64 {
	q := quietShare
	if better == higher {
		q = 1 - quietShare
	}
	return quantile(sortedCopy(samples), q)
}

// windowed cuts a phase into whole windows and returns the completed
// ops per second of each. Ops completing after the last whole window
// are left out.
func windowed(p *phaseResult, window time.Duration, weight int) []float64 {
	n := int(p.wall / window)
	if n < 1 {
		n, window = 1, p.wall
	}
	counts := make([]int, n)
	for _, e := range p.ends {
		if w := int(e / float64(window)); w < n {
			counts[w]++
		}
	}
	rates := make([]float64, n)
	for i, c := range counts {
		rates[i] = float64(c*weight) / window.Seconds()
	}
	return rates
}

// cpuSample is the server's CPU time at one instant.
type cpuSample struct {
	at  time.Time
	cpu float64
}

// watchCPU samples the server's CPU time every interval until stop is
// closed, then delivers the samples.
func watchCPU(c *child, every time.Duration, stop <-chan struct{}) <-chan []cpuSample {
	out := make(chan []cpuSample, 1)
	go func() {
		var samples []cpuSample
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if cpu, err := c.cpuSeconds(); err == nil {
				samples = append(samples, cpuSample{time.Now(), cpu})
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// cpuPerOp returns, for every interval between two CPU samples in
// which ops completed, the server's CPU µs per op.
func cpuPerOp(samples []cpuSample, p *phaseResult, weight int) []float64 {
	ends := sortedCopy(p.ends)
	var out []float64
	for i := 1; i < len(samples); i++ {
		lo := float64(samples[i-1].at.Sub(p.start))
		hi := float64(samples[i].at.Sub(p.start))
		ops := sort.SearchFloat64s(ends, hi) - sort.SearchFloat64s(ends, lo)
		if ops > 0 && lo >= 0 {
			out = append(out, (samples[i].cpu-samples[i-1].cpu)*1e6/float64(ops*weight))
		}
	}
	return out
}

// setUp generates the data, preloads it in process and starts the
// server: everything setup_s covers.
func setUp(rc *runConfig, tr *tracer, parent int64) (*dataset, string, *target, error) {
	spec := rc.spec
	gens, tail, appPool := spec.layout(rc.sz)
	_, end := tr.begin(parent, "setup.generate")
	d := newDataset(rc.seed, gens*rc.sz.genLen+tail, appPool, spec.columns, rc.sz)
	end()
	dir, err := rc.mkdir(spec.name)
	if err != nil {
		return nil, "", nil, err
	}
	_, end = tr.begin(parent, "setup.preload")
	if len(d.seq) > 0 {
		err = preload(dir, spec, d, gens, rc.sz.genLen)
	}
	end()
	if err != nil {
		return nil, "", nil, err
	}
	_, end = tr.begin(parent, "setup.start")
	tgt, err := rc.launch(serverConfig{dir: dir, shards: spec.shards, columns: spec.columnFlag()})
	end()
	return d, dir, tgt, err
}

// run executes one workload once and returns its record.
func run(rc *runConfig) (*record, error) {
	spec := rc.spec
	rec := &record{Workload: spec.name, Seed: rc.seed, Trace: rc.trace, Seconds: rc.timed.Seconds(),
		Metrics: map[string]metricValue{}, Classes: map[string]latencies{}, Env: describeEnv(rc),
		Sizes: map[string]int{"gen_len": rc.sz.genLen, "gens": rc.sz.gens, "tail": rc.sz.tail,
			"mixed_gens": rc.sz.mixedGens, "ingest_pool": rc.sz.ingestPool, "mixed_pool": rc.sz.mixedPool,
			"prefixes": rc.sz.prefixes, "hot_values": rc.sz.hotValues, "ladder_len": rc.sz.ladderLen,
			"clients": clients, "ingest_batch": ingestBatch, "mixed_batch": mixedBatch}}
	var tr *tracer
	if rc.trace {
		tr = newTracer(spec.name)
	}
	root, endRoot := tr.begin(0, "run."+spec.name)

	// Set-up, repeated: the last repetition's server is the one measured.
	var d *dataset
	var dir string
	var tgt *target
	for i := 0; i < rc.setups; i++ {
		if tgt != nil {
			tgt.stop()
			os.RemoveAll(dir)
		}
		id, end := tr.begin(root, "setup")
		t0 := time.Now()
		var err error
		if d, dir, tgt, err = setUp(rc, tr, id); err != nil {
			return nil, err
		}
		rec.SetupRuns = append(rec.SetupRuns, time.Since(t0).Seconds())
		end()
	}
	defer func() { // tgt may have been replaced by a restart
		tgt.stop()
		os.RemoveAll(dir)
	}()
	if tgt.proc != nil {
		rec.ServerFlags = tgt.proc.flags
	}

	gens := make([]*opGen, clients)
	for c := range gens {
		gens[c] = newOpGen(d, spec.mix, rc.seed, c, clients, spec.batch)
	}
	var sent atomic.Int64
	phase := func(name string, dur time.Duration, t *tracer) (*phaseResult, error) {
		id, end := tr.begin(root, name)
		defer end()
		return runPhase(tgt.addr, d, gens, spec.live, &sent, dur, t, id)
	}
	warm, err := phase("warmup", rc.warmup, nil)
	if err != nil {
		return nil, err
	}
	rec.absorb(warm)

	// The timed phase. A traced run splits it into an untraced and a
	// traced half, whose throughput ratio is the tracing overhead.
	before, err := sample(tgt)
	if err != nil {
		return nil, err
	}
	weight := 1
	if spec.valueOps {
		weight = spec.batch
	}
	window := windowLen
	halves := []*phaseResult{}
	if !rc.trace {
		stop := make(chan struct{})
		var samples <-chan []cpuSample
		if tgt.proc != nil {
			samples = watchCPU(tgt.proc, window, stop)
		}
		p, err := phase("timed", rc.timed, nil)
		close(stop)
		if err != nil {
			return nil, err
		}
		if samples != nil {
			rec.CPUWindows = cpuPerOp(<-samples, p, weight)
		}
		halves = append(halves, p)
	} else {
		window /= 2 // keep as many samples in each half
		for _, t := range []*tracer{nil, tr} {
			p, err := phase("timed", rc.timed/2, t)
			if err != nil {
				return nil, err
			}
			halves = append(halves, p)
		}
	}
	after, err := sample(tgt)
	if err != nil {
		return nil, err
	}
	timed := merge(halves)
	rec.absorb(timed)

	rec.WindowMS = window.Milliseconds()
	var halfRates [][]float64
	for _, h := range halves {
		r := windowed(h, window, weight)
		halfRates = append(halfRates, r)
		rec.Windows = append(rec.Windows, r...)
	}
	for k, lats := range timed.byClass() {
		rec.Classes[k.String()] = summarize(lats)
	}
	all := summarize(append([]float64(nil), timed.lats...))
	ops := float64(timed.ops() * weight)
	rec.MeanOpsS = ops / timed.wall.Seconds()

	// Post-run checks and space, on the store as the run left it.
	batches := make([]int, clients) // append batches acknowledged, per client
	timedAcked := 0
	for c := range batches {
		batches[c] = warm.acked[c] + timed.acked[c]
		timedAcked += timed.acked[c] * spec.batch
	}
	post, err := finish(rc, rec, d, dir, &tgt, gens, batches)
	if err != nil {
		return nil, err
	}

	if !rc.trace {
		e := rec.Metrics
		put := func(name string, v float64) { e[name] = metricValue{v, unitOf(endToEnd, name)} }
		put("setup_s", median(rec.SetupRuns))
		put("throughput_ops_s", quiet(rec.Windows, higher))
		if len(rec.CPUWindows) == 0 { // no per-window samples: an in-process server, or a run shorter than a window
			rec.CPUWindows = []float64{(after.cpu - before.cpu) * 1e6 / ops}
		}
		put("cpu_us_per_op", quiet(rec.CPUWindows, lower))
		put("disk_bits_per_elem", post.diskBits)
		put("mem_bits_per_elem", post.memBits)
	} else {
		put := func(name string, v float64) { rec.Metrics[name] = metricValue{v, unitOf(perLayer, name)} }
		counterMetrics(put, before.series, after.series, timed, timedAcked, d, spec)
		put("server.op_p50_us", all.P50us)
		put("server.op_p90_us", all.P90us)
		put("server.op_p99_us", all.P99us)
		put("server.op_p999_us", all.P999us)
		put("server.rss_mb", after.rss)
		put("server.trace_overhead_ratio", quiet(halfRates[1], higher)/quiet(halfRates[0], higher))
		put("store.compact_full_s", post.compactS)
		if err := ladder(rc, tr, root, put); err != nil {
			return nil, err
		}
	}
	endRoot()
	if rc.scratch != nil {
		decls := endToEnd
		if rc.trace {
			decls = perLayer
		}
		for _, d := range decls {
			if _, ok := rec.Metrics[d.Name]; !ok {
				return nil, fmt.Errorf("declared metric %s was not measured", d.Name)
			}
		}
	}
	rec.Correct = rec.Failed == 0
	if rc.outDir != "" {
		if err := writeOutputs(rc, rec, tr); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

func unitOf(decls []metricDecl, name string) string {
	for _, d := range decls {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("undeclared metric " + name)
}

// merge pools the halves of a split timed phase.
func merge(ps []*phaseResult) *phaseResult {
	if len(ps) == 1 {
		return ps[0]
	}
	m := &phaseResult{acked: make([]int, len(ps[0].acked))}
	for _, p := range ps {
		m.wall += p.wall
		m.add(p)
		for c, a := range p.acked {
			m.acked[c] += a
		}
	}
	return m
}

// serverSample is the server's state at one instant of a run.
type serverSample struct {
	cpu    float64 // process CPU seconds so far
	rss    float64 // MiB
	series map[string]float64
}

func sample(t *target) (serverSample, error) {
	var s serverSample
	var err error
	if s.series, err = scrape(t.addr); err != nil {
		return s, err
	}
	if t.proc != nil {
		if s.cpu, err = t.proc.cpuSeconds(); err != nil {
			return s, err
		}
		s.rss, err = t.proc.rssMB()
	}
	return s, err
}

type postRun struct {
	diskBits, memBits float64
	compactS          float64
}

// finish runs the untimed tail of a run: the length check, on ingest
// the process-crash durability check, then Flush + full Compact and
// the two space figures. tgt is replaced when the server is restarted.
func finish(rc *runConfig, rec *record, d *dataset, dir string, tgt **target, gens []*opGen,
	batches []int) (postRun, error) {
	var post postRun
	spec := rc.spec
	acked := 0
	for _, b := range batches {
		acked += b * spec.batch
	}
	want := len(d.seq) + acked
	cl, err := server.Dial((*tgt).addr)
	if err != nil {
		return post, err
	}
	st, err := cl.Stats()
	cl.Close()
	if err != nil {
		return post, err
	}
	rec.check(st.Len == want, "Len after the run is %d, want preload %d + acked %d", st.Len, len(d.seq), acked)

	// Process-crash durability: SIGKILL, restart on the same directory,
	// and every acknowledged value must be there — by count and, through
	// a full scan, as a multiset (the two clients' batches interleave
	// freely, so order is not fixed). The kernel's page cache survives a
	// process kill; losing it needs the ROADMAP's VFS seam.
	if spec.name == "ingest" && (*tgt).proc != nil {
		(*tgt).proc.kill()
		nt, err := rc.launch(serverConfig{dir: dir, shards: spec.shards, columns: spec.columnFlag()})
		if err != nil {
			return post, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		*tgt = nt
		tally := map[string]int{}
		for c, g := range gens {
			for b := 0; b < batches[c]; b++ {
				vs, _ := g.appendBatch(op{pos: c + b*clients})
				for _, v := range vs {
					tally[v]++
				}
			}
		}
		if cl, err = server.Dial(nt.addr); err != nil {
			return post, err
		}
		n := 0
		err = cl.Scan(0, -1, 4096, func(_ int, v string) bool {
			n++
			tally[v]--
			return true
		})
		cl.Close()
		if err != nil {
			return post, err
		}
		off := 0
		for _, c := range tally {
			if c != 0 {
				off++
			}
		}
		rec.check(n == want && off == 0,
			"after SIGKILL and restart: %d values (want %d), %d distinct values with a wrong count", n, want, off)
	}

	if cl, err = server.Dial((*tgt).addr); err != nil {
		return post, err
	}
	defer cl.Close()
	if err := cl.Flush(); err != nil {
		return post, err
	}
	t0 := time.Now()
	if err := cl.Compact(); err != nil {
		return post, err
	}
	post.compactS = time.Since(t0).Seconds()
	if st, err = cl.Stats(); err != nil {
		return post, err
	}
	rec.check(st.Len == want, "Len after Compact is %d, want %d", st.Len, want)
	bits := st.RouterBits
	for _, g := range st.Gens {
		bits += g.SizeBits + g.FilterBits
	}
	post.memBits = float64(bits) / float64(want)
	bytes, err := dirBytes(dir)
	if err != nil {
		return post, err
	}
	post.diskBits = float64(bytes) * 8 / float64(want)
	return post, nil
}

// counterMetrics turns the deltas of the server's own /metrics series
// over the timed phase into the workload's per-layer counters. A ratio
// whose denominator did not move reports 0.
func counterMetrics(put func(string, float64), before, after map[string]float64,
	timed *phaseResult, ackedValues int, d *dataset, spec *workloadSpec) {
	delta := func(series string) float64 { return after[series] - before[series] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	wall := timed.wall.Seconds()
	put("store.flush_count", delta("wt_flushes_total"))
	put("store.flush_busy_share", delta("wt_flush_seconds_sum")/wall)
	put("store.compact_count", delta("wt_compactions_total"))
	put("store.compact_busy_share", delta("wt_compact_seconds_sum")/wall)
	put("store.wal_bytes_per_value", ratio(delta("wt_wal_appended_bytes_total"), float64(ackedValues)))
	userBytes := 0.0
	if ackedValues > 0 {
		// Mean value length over the append stream, plus 16 bytes for a
		// two-column u64 row.
		total := 0
		for _, v := range d.app {
			total += len(v)
		}
		per := float64(total) / float64(len(d.app))
		if spec.columns {
			per += 16
		}
		userBytes = per * float64(ackedValues)
	}
	put("store.write_amp", ratio(delta("wt_wal_appended_bytes_total")+delta("wt_flush_frozen_bytes_total")+
		delta("wt_compact_written_bytes_total"), userBytes))
	neg, pass := delta("wt_filter_negative_total"), delta("wt_filter_pass_total")
	put("store.filter_negative_share", ratio(neg, neg+pass))
	put("store.generations_end", after["wt_store_generations"])
	put("server.values_per_commit", ratio(delta("wt_batcher_commit_values_total"), delta("wt_batcher_commits_total")))
	put("server.commit_busy_share", delta("wt_batcher_commit_seconds_sum")/wall)
	hits, misses := delta("wt_cache_hits_total"), delta("wt_cache_misses_total")
	put("server.cache_hit_ratio", ratio(hits, hits+misses))
	put("server.cache_invalidations", delta("wt_cache_invalidations_total"))
}

// writeOutputs saves the record and, for a traced run, the span file:
// JSON lines, one span per line, written once when the run has ended.
func writeOutputs(rc *runConfig, rec *record, tr *tracer) error {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	tag := fmt.Sprintf("%s-seed%d", rec.Workload, rec.Seed)
	if rec.Trace {
		tag += "-trace"
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(rc.outDir, tag+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(rc.outDir, tag+".spans.jsonl"))
	if err != nil {
		return err
	}
	buf := bufio.NewWriter(f)
	enc := json.NewEncoder(buf)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := buf.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
