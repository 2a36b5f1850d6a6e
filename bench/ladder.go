package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	wavelettrie "repro"
	"repro/internal/appendbv"
	"repro/internal/bitstr"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/rrr"
	"repro/internal/succinct"
	"repro/server"
	"repro/store"
)

// The layer ladder times the same logical ops at every layer of the
// stack over one dataset: the first sz.ladderLen values of the run's
// seeded sequence, with rows. In-process rungs are single-threaded and
// report the median over batches of ns per op; the loopback and gateway
// rungs drive a real wtserve on the ladder's plain columnar store with
// one client and report the p50 round trip. Nesting cannot be seen from
// outside the program, so a rung's added cost is the difference of
// medians with the rung below — an estimate, exact only for server
// (loopback − Snapshot) and http (gateway − loopback).

// ladderArgs is the pool of pre-drawn arguments every rung replays, so
// each layer answers the same questions.
const ladderArgs = 1 << 12

type ladderRun struct {
	rc     *runConfig
	tr     *tracer
	parent int64
	put    func(string, float64)
	d      *dataset
	ops    [numKinds][]op
}

// rung runs fn batches×per times, i counting up across batches, records
// the replay as a rung.<name> span, and returns the median ns per op.
func (l *ladderRun) rung(name string, batches, per int, fn func(i int)) float64 {
	_, end := l.tr.begin(l.parent, "rung."+name)
	defer end()
	each := make([]float64, batches)
	i := 0
	for b := range each {
		t0 := time.Now()
		for k := 0; k < per; k++ {
			fn(i)
			i++
		}
		each[b] = float64(time.Since(t0)) / float64(per)
	}
	return median(each)
}

// Batch shapes by how long one op takes.
const (
	fastBatches, fastPer = 11, 20000 // tens of ns
	midBatches, midPer   = 9, 400    // microseconds
	slowBatches, slowPer = 7, 120    // tens of microseconds
)

func (l *ladderRun) arg(k opKind, i int) op { return l.ops[k][i&(ladderArgs-1)] }

func ladder(rc *runConfig, tr *tracer, root int64, put func(string, float64)) error {
	id, end := tr.begin(root, "ladder")
	defer end()
	n := rc.sz.ladderLen
	l := &ladderRun{rc: rc, tr: tr, parent: id, put: put, d: newDataset(rc.seed, n, n, true, rc.sz)}
	g := newOpGen(l.d, nil, rc.seed, 0, 1, mixedBatch)
	for _, k := range []opKind{opAccess, opRank, opSelect, opCount, opCountPrefix, opRankPrefix,
		opSelectPrefix, opScanPrefix, opScanWhere, opRow} {
		l.ops[k] = make([]op, ladderArgs)
		for i := range l.ops[k] {
			l.ops[k][i] = g.draw(k)
		}
	}
	l.bitvectors()
	l.tries()
	plainDir, err := l.stores()
	if err != nil {
		return err
	}
	if rc.scratch == nil {
		return nil // no wtserve binary: the in-process rungs are all there is
	}
	if err := l.served(plainDir); err != nil {
		return err
	}
	return l.replication()
}

// bitvectors times the two bitvector engines: RRR, which every Frozen
// bitvector is, and the append-only vector under the memtable.
func (l *ladderRun) bitvectors() {
	const n = 1 << 20
	r := rand.New(rand.NewSource(l.rc.seed))
	pos := make([]int, ladderArgs)
	for i := range pos {
		pos[i] = r.Intn(n)
	}
	var rank, sel, acc, bits float64
	densities := []float64{0.5, 0.05}
	for _, p := range densities {
		b := bitvec.NewBuilder(n)
		for i := 0; i < n; i++ {
			bit := byte(0)
			if r.Float64() < p {
				bit = 1
			}
			b.AppendBit(bit)
		}
		v := rrr.FromBitvec(b.Build())
		ones := v.Ones()
		tag := fmt.Sprintf("rrr.%%s.p%g", p)
		rank += l.rung(fmt.Sprintf(tag, "rank1"), fastBatches, fastPer, func(i int) { v.Rank1(pos[i&(ladderArgs-1)]) })
		sel += l.rung(fmt.Sprintf(tag, "select1"), fastBatches, fastPer, func(i int) { v.Select1(pos[i&(ladderArgs-1)] % ones) })
		acc += l.rung(fmt.Sprintf(tag, "access"), fastBatches, fastPer, func(i int) { v.Access(pos[i&(ladderArgs-1)]) })
		bits += float64(v.SizeBits()) / n
	}
	k := float64(len(densities))
	l.put("rrr.rank1_ns", rank/k)
	l.put("rrr.select1_ns", sel/k)
	l.put("rrr.access_ns", acc/k)
	l.put("rrr.bits_per_bit", bits/k)

	av := appendbv.New()
	l.put("appendbv.append_ns", l.rung("appendbv.append", 16, n/16, func(i int) { av.Append(byte(pos[i&(ladderArgs-1)] & 1)) }))
	l.put("appendbv.rank1_ns", l.rung("appendbv.rank1", fastBatches, fastPer, func(i int) { av.Rank1(pos[i&(ladderArgs-1)]) }))
}

// tries times the §3 succinct trie on pre-encoded bit strings, the
// append-only core trie, and the root package's string-level wrappers
// of both — whose difference with the rung below is the string ↔
// BitString conversion.
func (l *ladderRun) tries() {
	d, n := l.d, len(l.d.seq)
	bs := make([]bitstr.BitString, n)
	for i, v := range d.seq {
		bs[i] = bitstr.EncodeString(v)
	}
	pfx := make([]bitstr.BitString, len(d.pool))
	for i, p := range d.pool {
		pfx[i] = bitstr.EncodePrefixString(p)
	}
	// Values are looked up by a position that holds them.
	at := func(k opKind, i int) (bitstr.BitString, op) {
		o := l.arg(k, i)
		return bs[d.valPos[o.s][0]], o
	}

	var tr *succinct.Trie
	build := l.rung("succinct.build", 1, 1, func(int) {
		b := succinct.NewBuilder()
		for _, s := range bs {
			b.AddValueBits(s)
		}
		for _, s := range bs {
			if err := b.AppendBits(s); err != nil {
				panic(err) // the values were all added above
			}
		}
		var err error
		if tr, err = b.Build(); err != nil {
			panic(err)
		}
	})
	l.put("succinct.build_ns_per_elem", build/float64(n))
	l.put("succinct.access_ns", l.rung("succinct.access", slowBatches, slowPer, func(i int) { tr.AccessBits(l.arg(opAccess, i).pos) }))
	l.put("succinct.rank_ns", l.rung("succinct.rank", slowBatches, slowPer, func(i int) {
		s, o := at(opRank, i)
		tr.RankBits(s, o.pos)
	}))
	l.put("succinct.select_ns", l.rung("succinct.select", slowBatches, slowPer, func(i int) {
		s, o := at(opSelect, i)
		tr.SelectBits(s, o.pos)
	}))
	l.put("succinct.rankprefix_ns", l.rung("succinct.rankprefix", slowBatches, slowPer, func(i int) {
		o := l.arg(opRankPrefix, i)
		tr.RankPrefixBits(pfx[o.pfx], o.pos)
	}))
	l.put("succinct.iterate_ns_per_elem", l.rung("succinct.iterate", 3, 1, func(int) {
		tr.EnumerateBits(0, n, func(int, bitstr.BitString) bool { return true })
	})/float64(n))
	l.put("succinct.bits_per_elem", float64(tr.SizeBits())/float64(n))
	l.put("succinct.bits_over_lb", float64(tr.SizeBits())/entropy.LB(d.seq))

	ao := core.NewAppendOnly()
	l.put("core.append_ns", l.rung("core.append", 8, n/8, func(i int) { ao.AppendBits(bs[i]) }))
	l.put("core.access_ns", l.rung("core.access", midBatches, midPer, func(i int) { ao.AccessBits(l.arg(opAccess, i).pos) }))
	l.put("core.rank_ns", l.rung("core.rank", midBatches, midPer, func(i int) {
		s, o := at(opRank, i)
		ao.RankBits(s, o.pos)
	}))
	l.put("core.bits_per_elem", float64(ao.SizeBits())/float64(n))

	wa := wavelettrie.NewAppendOnly()
	l.put("wavelettrie.appendonly_append_ns", l.rung("wavelettrie.appendonly_append", 8, n/8, func(i int) { wa.Append(d.seq[i]) }))
	var fz *wavelettrie.Frozen
	freeze := l.rung("wavelettrie.freeze", 1, 1, func(int) {
		fb := wavelettrie.NewFrozenBuilder()
		wa.FeedValues(fb)
		if err := wa.FeedRange(fb, 0, n, nil); err != nil {
			panic(err)
		}
		var err error
		if fz, err = fb.Build(); err != nil {
			panic(err)
		}
	})
	l.put("wavelettrie.freeze_ns_per_elem", freeze/float64(n))
	l.put("wavelettrie.frozen_access_ns", l.rung("wavelettrie.frozen_access", slowBatches, slowPer, func(i int) { fz.Access(l.arg(opAccess, i).pos) }))
	rankArg := func(i int) (string, int) { o := l.arg(opRank, i); return o.s, o.pos }
	l.put("wavelettrie.frozen_rank_ns", l.rung("wavelettrie.frozen_rank", slowBatches, slowPer, func(i int) { fz.Rank(rankArg(i)) }))
	l.put("wavelettrie.frozen_select_ns", l.rung("wavelettrie.frozen_select", slowBatches, slowPer, func(i int) {
		o := l.arg(opSelect, i)
		fz.Select(o.s, o.pos)
	}))
	l.put("wavelettrie.frozen_rankprefix_ns", l.rung("wavelettrie.frozen_rankprefix", slowBatches, slowPer, func(i int) {
		o := l.arg(opRankPrefix, i)
		fz.RankPrefix(o.s, o.pos)
	}))
	var m0, m1 runtime.MemStats
	const allocRuns = 200
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocRuns; i++ {
		fz.Rank(rankArg(i))
	}
	runtime.ReadMemStats(&m1)
	l.put("wavelettrie.frozen_rank_allocs", float64(m1.Mallocs-m0.Mallocs)/allocRuns)
	data, err := fz.MarshalBinary()
	if err != nil {
		panic(err)
	}
	l.put("wavelettrie.frozen_load_mapped_us", l.rung("wavelettrie.frozen_load_mapped", 11, 1, func(int) {
		if _, err := wavelettrie.LoadFrozenMapped(data, nil); err != nil {
			panic(err)
		}
	})/1e3)
}

// ladderGens is how many generations the ladder's stores are flushed into.
const ladderGens = 4

// timedPreload preloads the ladder dataset into a fresh directory and
// returns the directory and the in-process append cost per value
// (appends and flushes; not open/close).
func (l *ladderRun) timedPreload(name string, shards int, withRows bool) (string, float64, error) {
	dir, err := l.rc.mkdir("ladder-" + name)
	if err != nil {
		return "", 0, err
	}
	cols := ""
	if withRows {
		cols = columnSpec
	}
	st, err := openStore(dir, shards, cols)
	if err != nil {
		return "", 0, err
	}
	d, n := l.d, len(l.d.seq)
	rows := d.rows
	if !withRows {
		rows = nil
	}
	_, end := l.tr.begin(l.parent, "rung."+name+".append")
	t0 := time.Now()
	per := n / ladderGens
	for g := 0; g < ladderGens && err == nil; g++ {
		if err = appendAll(st, d.seq, rows, g*per, (g+1)*per); err == nil {
			err = st.Flush()
		}
	}
	cost := float64(time.Since(t0)) / float64(n)
	end()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return dir, cost, err
}

var wherePreds = []store.Pred{{Col: 0, Op: store.PredGE, Val: errStatus}}

// snapRungs is what the plain and the sharded snapshot rungs share.
type snapRungs interface {
	Rank(v string, pos int) int
	CountPrefix(p string) int
}

// stores builds the ladder's plain stores (bare and columnar) and its
// sharded columnar store, times their snapshots in process, and returns
// the plain columnar directory for wtserve to serve.
func (l *ladderRun) stores() (string, error) {
	n := float64(len(l.d.seq))
	bareDir, bare, err := l.timedPreload("store.bare", 0, false)
	if err != nil {
		return "", err
	}
	os.RemoveAll(bareDir)
	plainDir, withRows, err := l.timedPreload("store", 0, true)
	if err != nil {
		return "", err
	}
	l.put("store.append_ns_per_value", bare)
	l.put("column.ingest_rows_ratio", withRows/bare)

	cols, _ := store.ParseColumns(columnSpec)
	st, err := store.Open(plainDir, &store.Options{DisableAutoFlush: true, Columns: cols})
	if err != nil {
		return "", err
	}
	sn := st.Snapshot()
	l.put("store.snapshot_access_ns", l.rung("store.snapshot_access", slowBatches, slowPer, func(i int) { sn.Access(l.arg(opAccess, i).pos) }))
	l.put("store.snapshot_rank_ns", l.snapRank("store", sn))
	l.put("store.snapshot_select_ns", l.rung("store.snapshot_select", slowBatches, slowPer, func(i int) {
		o := l.arg(opSelect, i)
		sn.Select(o.s, o.pos)
	}))
	l.put("store.snapshot_countprefix_ns", l.snapCountPrefix("store", sn))
	l.put("store.snapshot_rankprefix_ns", l.rung("store.snapshot_rankprefix", slowBatches, slowPer, func(i int) {
		o := l.arg(opRankPrefix, i)
		sn.RankPrefix(o.s, o.pos)
	}))
	l.put("store.snapshot_iterateprefix_ns_per_match", l.perMatch("store.snapshot_iterateprefix", func(p string, fn func(idx, pos int) bool) {
		sn.IteratePrefix(p, 0, fn)
	}))
	l.put("column.row_ns", l.rung("column.row", midBatches, midPer, func(i int) { sn.Row(l.arg(opRow, i).pos) }))
	// CountWhere visits every match of the prefix: milliseconds on a hot host.
	l.put("column.countwhere_ns", l.rung("column.countwhere", 5, 4, func(i int) {
		if _, err := sn.CountWhere(l.arg(opScanWhere, i).s, wherePreds...); err != nil {
			panic(err)
		}
	}))
	l.put("column.iteratewhere_ns_per_match", l.perMatch("column.iteratewhere", func(p string, fn func(idx, pos int) bool) {
		if err := sn.IterateWhere(p, 0, wherePreds, fn); err != nil {
			panic(err)
		}
	}))
	colBytes := 0
	for _, g := range st.Generations() {
		colBytes += g.ColFileBytes + g.ColDirFileBytes
	}
	l.put("column.bits_per_row", float64(colBytes)*8/n)
	if err := st.Close(); err != nil {
		return "", err
	}

	shardDir, shardAppend, err := l.timedPreload("sharded", 2, true)
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(shardDir)
	l.put("sharded.append_ns_per_value", shardAppend)
	ss, err := store.OpenSharded(shardDir, &store.ShardedOptions{Shards: 2,
		Store: store.Options{DisableAutoFlush: true, Columns: cols}})
	if err != nil {
		return "", err
	}
	defer ss.Close()
	ssn := ss.Snapshot()
	l.put("sharded.snapshot_access_ns", l.rung("sharded.snapshot_access", slowBatches, slowPer, func(i int) { ssn.Access(l.arg(opAccess, i).pos) }))
	l.put("sharded.snapshot_rank_ns", l.snapRank("sharded", ssn))
	l.put("sharded.snapshot_countprefix_ns", l.snapCountPrefix("sharded", ssn))
	l.put("sharded.router_probe_ns", l.rung("sharded.router_probe", fastBatches, fastPer/10, func(i int) { ss.RouterProbe(l.arg(opAccess, i).pos) }))
	l.put("sharded.router_bits_per_elem", ss.RouterInfo().BitsPerElem())
	return plainDir, nil
}

func (l *ladderRun) snapRank(layer string, sn snapRungs) float64 {
	return l.rung(layer+".snapshot_rank", slowBatches, slowPer, func(i int) {
		o := l.arg(opRank, i)
		sn.Rank(o.s, o.pos)
	})
}

func (l *ladderRun) snapCountPrefix(layer string, sn snapRungs) float64 {
	return l.rung(layer+".snapshot_countprefix", slowBatches, slowPer, func(i int) { sn.CountPrefix(l.arg(opCountPrefix, i).s) })
}

// perMatch streams every match of a spread of pool prefixes and
// returns the median, over prefixes, of ns per match.
func (l *ladderRun) perMatch(name string, iterate func(p string, fn func(idx, pos int) bool)) float64 {
	_, end := l.tr.begin(l.parent, "rung."+name)
	defer end()
	var each []float64
	for i := 0; i < len(l.d.pool); i += max(1, len(l.d.pool)/16) {
		k := 0
		t0 := time.Now()
		iterate(l.d.pool[i], func(int, int) bool { k++; return true })
		if k > 0 {
			each = append(each, float64(time.Since(t0))/float64(k))
		}
	}
	return median(each)
}

// p50us times fn count times and returns the median in µs, recording
// the replay as one rung span.
func (l *ladderRun) p50us(name string, count int, fn func(i int) error) (float64, error) {
	_, end := l.tr.begin(l.parent, "rung."+name)
	defer end()
	ns := make([]float64, count)
	for i := range ns {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ns[i] = float64(time.Since(t0))
	}
	sort.Float64s(ns)
	return quantile(ns, 0.5) / 1e3, nil
}

// readOps are the server's read handlers, as /metrics labels them.
var readOps = []string{"access", "rank", "select", "count", "count_prefix", "rank_prefix", "select_prefix",
	"iterate_prefix", "scan_where", "row"}

// handlerMeanUS is the mean time inside the server's handlers for ops
// between two scrapes: wt_server_op_seconds sum ÷ count.
func handlerMeanUS(before, after map[string]float64, ops []string) float64 {
	var sum, count float64
	for _, o := range ops {
		sel := fmt.Sprintf("{op=%q}", o)
		sum += after["wt_server_op_seconds_sum"+sel] - before["wt_server_op_seconds_sum"+sel]
		count += after["wt_server_op_seconds_count"+sel] - before["wt_server_op_seconds_count"+sel]
	}
	if count == 0 {
		return 0
	}
	return sum / count * 1e6
}

// served drives a real wtserve on the ladder's plain columnar store:
// the loopback rung per op class, the handler's own timing of the same
// requests, the gateway rung, one point-read window at GOMAXPROCS 2
// and 1, and the recovery time after SIGKILL.
func (l *ladderRun) served(dir string) error {
	sc := l.rc.scratch
	cfg := serverConfig{dir: dir, http: true}
	srv, err := sc.startServer(cfg)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	cl, err := server.Dial(srv.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	chk := &checker{cl: cl, d: l.d, g: newOpGen(l.d, nil, l.rc.seed, 0, 1, mixedBatch), sent: new(atomic.Int64)}

	wire, err := l.p50us("server.wire", 2000, func(int) error { return cl.Ping() })
	if err != nil {
		return err
	}
	l.put("server.wire_us", wire)
	before, err := scrape(srv.addr)
	if err != nil {
		return err
	}
	loop := map[opKind]float64{}
	for _, k := range []opKind{opAccess, opRank, opSelect, opCount, opCountPrefix, opRankPrefix, opScanPrefix, opScanWhere} {
		count := 1000
		if k == opScanPrefix || k == opScanWhere {
			count = 300
		}
		if loop[k], err = l.p50us("server.loopback_"+k.String(), count, func(i int) error { return chk.do(l.arg(k, i)) }); err != nil {
			return err
		}
		if k != opCount {
			l.put("server.loopback_"+k.String()+"_us", loop[k])
		}
	}
	mid, err := scrape(srv.addr)
	if err != nil {
		return err
	}
	// Appends come last: they make the store live, and every read above
	// was checked exactly. They carry no rows, like the gateway's below.
	if loop[opAppend], err = l.p50us("server.loopback_append", 500, func(i int) error {
		vs, _ := chk.g.appendBatch(op{pos: i})
		return cl.AppendBatch(vs)
	}); err != nil {
		return err
	}
	l.put("server.loopback_append_us", loop[opAppend])
	after, err := scrape(srv.addr)
	if err != nil {
		return err
	}
	l.put("server.handler_read_us", handlerMeanUS(before, mid, readOps))
	l.put("server.handler_append_us", handlerMeanUS(mid, after, []string{"append_batch"}))

	if err := l.gateway(srv.httpAddr, loop); err != nil {
		return err
	}

	// The same two-client point-read window with the server on 2 cores
	// and on 1: what the second core is worth.
	window := func(c *child) (float64, error) {
		gens := make([]*opGen, clients)
		for i := range gens {
			gens[i] = newOpGen(l.d, findWorkload("point_read").mix, l.rc.seed, i, clients, 0)
		}
		p, err := runPhase(c.addr, l.d, gens, false, new(atomic.Int64), 1500*time.Millisecond, nil, 0)
		if err != nil {
			return 0, err
		}
		if p.failed > 0 {
			return 0, fmt.Errorf("ladder point-read window: %d failed ops: %v", p.failed, p.errs)
		}
		return float64(p.ops()) / p.wall.Seconds(), nil
	}
	_, end := l.tr.begin(l.parent, "rung.server.procs2_window")
	two, err := window(srv)
	end()
	if err != nil {
		return err
	}
	srv.kill()
	cfg.procs, cfg.http = 1, false
	if srv, err = sc.startServer(cfg); err != nil {
		return err
	}
	_, end = l.tr.begin(l.parent, "rung.server.procs1_window")
	one, err := window(srv)
	end()
	if err != nil {
		return err
	}
	l.put("server.procs1_throughput_ratio", one/two)

	// Recovery: SIGKILL to first Ping on the same directory, WAL tail
	// replay included.
	cfg.procs = pinnedProcs
	var recover []float64
	for i := 0; i < 5; i++ {
		srv.kill()
		_, end := l.tr.begin(l.parent, "recover")
		t0 := time.Now()
		srv, err = sc.startServer(cfg)
		end()
		if err != nil {
			return err
		}
		recover = append(recover, float64(time.Since(t0))/1e6)
	}
	l.put("store.recover_ms", median(recover))
	return nil
}

// gateway times the HTTP/JSON gateway on a keep-alive connection and
// reports what it adds over the binary protocol for the same request.
func (l *ladderRun) gateway(addr string, loop map[opKind]float64) error {
	hc := &http.Client{Timeout: opTimeout}
	defer hc.CloseIdleConnections()
	base := "http://" + addr
	get := func(path string, q url.Values) error {
		resp, err := hc.Get(base + path + "?" + q.Encode())
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return nil
	}
	const count = 1000
	access, err := l.p50us("http.access", count, func(i int) error {
		return get("/v1/access", url.Values{"pos": {strconv.Itoa(l.arg(opAccess, i).pos)}})
	})
	if err != nil {
		return err
	}
	cnt, err := l.p50us("http.count", count, func(i int) error {
		return get("/v1/count", url.Values{"v": {l.arg(opCount, i).s}})
	})
	if err != nil {
		return err
	}
	where, err := l.p50us("http.countwhere", 30, func(i int) error {
		return get("/v1/countwhere", url.Values{"p": {l.arg(opScanWhere, i).s}, "pred": {"status>=" + strconv.Itoa(errStatus)}})
	})
	if err != nil {
		return err
	}
	g := newOpGen(l.d, nil, l.rc.seed, 0, 1, mixedBatch)
	app, err := l.p50us("http.append", count/2, func(i int) error {
		vs, _ := g.appendBatch(op{pos: 500 + i})
		body, err := json.Marshal(map[string]any{"values": vs})
		if err != nil {
			return err
		}
		resp, err := hc.Post(base+"/v1/append", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /v1/append: %s", resp.Status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("http.access_added_us", access-loop[opAccess])
	l.put("http.count_added_us", cnt-loop[opCount])
	l.put("http.countwhere_us", where)
	l.put("http.append_added_us", app-loop[opAppend])
	return nil
}

// replication measures what a follower costs the write path: the same
// short ingest window against a fresh primary without and with one
// follower attached, the worst lag the primary reported meanwhile, and
// how long a second, empty follower needs to catch up afterwards.
func (l *ladderRun) replication() error {
	sc := l.rc.scratch
	const window = 1500 * time.Millisecond
	spec := findWorkload("ingest")
	bare := *l.d // the ingest workload's store has no columns
	bare.appRows = nil
	ingest := func(addr string, watch func()) (float64, int, error) {
		gens := make([]*opGen, clients)
		for i := range gens {
			gens[i] = newOpGen(&bare, spec.mix, l.rc.seed, i, clients, spec.batch)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for watch != nil {
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Millisecond):
					watch()
				}
			}
		}()
		p, err := runPhase(addr, &bare, gens, true, new(atomic.Int64), window, nil, 0)
		close(stop)
		<-done
		if err != nil {
			return 0, 0, err
		}
		if p.failed > 0 {
			return 0, 0, fmt.Errorf("ladder ingest window: %d failed ops: %v", p.failed, p.errs)
		}
		values := p.ops() * spec.batch
		return float64(values) / p.wall.Seconds(), values, nil
	}
	primary := func(name string) (*child, error) {
		dir, err := l.rc.mkdir("ladder-" + name)
		if err != nil {
			return nil, err
		}
		return sc.startServer(serverConfig{dir: dir})
	}

	alone, err := primary("repl-alone")
	if err != nil {
		return err
	}
	_, end := l.tr.begin(l.parent, "rung.repl.ingest_alone")
	base, _, err := ingest(alone.addr, nil)
	end()
	alone.kill()
	if err != nil {
		return err
	}

	prim, err := primary("repl-primary")
	if err != nil {
		return err
	}
	defer prim.kill()
	follower := func(name string) (*child, error) {
		dir, err := l.rc.mkdir("ladder-" + name)
		if err != nil {
			return nil, err
		}
		return sc.startServer(serverConfig{dir: dir, follow: prim.addr})
	}
	fol, err := follower("repl-follower")
	if err != nil {
		return err
	}
	defer fol.kill()
	maxLag := 0.0
	_, end = l.tr.begin(l.parent, "rung.repl.ingest_followed")
	followed, values, err := ingest(prim.addr, func() {
		if m, err := scrape(prim.addr); err == nil && m["wt_repl_lag_records"] > maxLag {
			maxLag = m["wt_repl_lag_records"]
		}
	})
	end()
	if err != nil {
		return err
	}
	l.put("repl.ingest_ratio", followed/base)
	l.put("repl.lag_records_max", maxLag)

	pc, err := server.Dial(prim.addr)
	if err != nil {
		return err
	}
	defer pc.Close()
	st, err := pc.Stats()
	if err != nil {
		return err
	}
	if st.Len != values {
		return fmt.Errorf("ladder primary holds %d values, %d were acknowledged", st.Len, values)
	}
	_, end = l.tr.begin(l.parent, "rung.repl.catchup")
	defer end()
	t0 := time.Now()
	late, err := follower("repl-late")
	if err != nil {
		return err
	}
	defer late.kill()
	fc, err := server.Dial(late.addr)
	if err != nil {
		return err
	}
	defer fc.Close()
	if _, ok, err := fc.WaitFor(st.Watermark, 30*time.Second); err != nil || !ok {
		return fmt.Errorf("late follower did not reach watermark %d: ok=%v err=%v", st.Watermark, ok, err)
	}
	l.put("repl.catchup_s", time.Since(t0).Seconds())
	return nil
}
