package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/workload"
	"repro/store"
)

// sizes pins how much data the workloads hold. The counts were set once
// so that a run fits the driver's time cap on the 2-CPU reference box
// (see README.md, "Sizing") and are frozen: changing one starts a new
// trajectory.
type sizes struct {
	genLen     int // values per preloaded generation
	gens       int // generations preloaded for point_read / prefix_scan
	tail       int // values left unflushed in the WAL (replayed at start)
	mixedGens  int // generations preloaded (per shard flush) for mixed
	ingestPool int // values in the ingest stream (reused if a run outlasts it)
	mixedPool  int // values in mixed's append stream (likewise)
	prefixes   int // prefix pool size
	hotValues  int // pool of most frequent values for Count on mixed
	ladderLen  int // values the layer ladder is built over
}

var pinned = sizes{genLen: 16384, gens: 8, tail: 1024, mixedGens: 4,
	ingestPool: 1 << 20, mixedPool: 1 << 18, prefixes: 512, hotValues: 64,
	ladderLen: 1 << 16}

const (
	ingestBatch = 64  // values per AppendBatch on ingest
	mixedBatch  = 64  // values per AppendBatchRows on mixed
	prefixPage  = 64  // ScanPrefix page
	wherePage   = 16  // ScanWhere page
	scanPage    = 256 // Scan (cursor path) page
	columnSpec  = "status:u64,bytes:u64"
	errStatus   = 500 // the ScanWhere predicate is status >= errStatus
)

// genRows draws one payload row per value: status is 500 for one row
// in twenty and 200 otherwise, bytes is uniform below 2^16.
func genRows(n int, seed int64) []store.Row {
	r := rand.New(rand.NewSource(seed))
	rows := make([]store.Row, n)
	for i := range rows {
		status := uint64(200)
		if r.Intn(20) == 0 {
			status = errStatus
		}
		rows[i] = store.Row{store.U64(status), store.U64(uint64(r.Intn(1 << 16)))}
	}
	return rows
}

// dataset is a workload's generated input together with the flat
// oracle every reply is checked against: the sequence itself, the
// ascending position list of every value, and the position lists of
// the prefix pool. Building it is part of set-up; looking an answer up
// is O(1) or one binary search, identical on both sides of any
// comparison.
type dataset struct {
	seq  []string    // the checkable prefix: what is preloaded
	rows []store.Row // one per seq element; nil when the store has no columns

	app     []string // append stream (ingest, mixed)
	appRows []store.Row

	valPos  map[string][]int
	hot     []string // most frequent values, hottest first
	pool    []string // prefix pool, hottest first
	poolPos [][]int  // positions matching pool[i], ascending
	poolErr [][]int  // the subset of poolPos[i] whose row has status >= errStatus
}

// newDataset generates n preloaded values (+ rows when withRows) and
// an append stream of appN values from seed, and indexes the preload.
func newDataset(seed int64, n, appN int, withRows bool, sz sizes) *dataset {
	cfg := workload.DefaultURLConfig()
	d := &dataset{seq: workload.URLLog(n, seed, cfg)}
	if appN > 0 {
		d.app = workload.URLLog(appN, seed^0x5eed, cfg)
	}
	if withRows {
		d.rows = genRows(n, seed+1)
		d.appRows = genRows(appN, seed+2)
	}
	d.index(sz)
	return d
}

func (d *dataset) index(sz sizes) {
	d.valPos = make(map[string][]int)
	for i, v := range d.seq {
		d.valPos[v] = append(d.valPos[v], i)
	}
	distinct := make([]string, 0, len(d.valPos))
	for v := range d.valPos {
		distinct = append(distinct, v)
	}
	sort.Strings(distinct)

	byCount := func(names []string, count func(string) int) {
		sort.Slice(names, func(i, j int) bool {
			ci, cj := count(names[i]), count(names[j])
			if ci != cj {
				return ci > cj
			}
			return names[i] < names[j]
		})
	}
	d.hot = append([]string(nil), distinct...)
	byCount(d.hot, func(v string) int { return len(d.valPos[v]) })
	if len(d.hot) > sz.hotValues {
		d.hot = d.hot[:sz.hotValues]
	}

	// The pool is every host plus host/segment paths, by how many
	// elements they lead — candidates are cut at '/' boundaries, but a
	// pool entry matches as a byte prefix ("h/a1" also covers "h/a10"),
	// exactly as the store's prefix operations define it.
	lead := map[string]int{}
	for v, ps := range d.valPos {
		cut := strings.IndexByte(v, '/')
		if cut < 0 {
			lead[v] += len(ps)
			continue
		}
		lead[v[:cut]] += len(ps)
		if next := strings.IndexByte(v[cut+1:], '/'); next >= 0 {
			lead[v[:cut+1+next]] += len(ps)
		} else {
			lead[v] += len(ps)
		}
	}
	for p := range lead {
		d.pool = append(d.pool, p)
	}
	byCount(d.pool, func(p string) int { return lead[p] })
	if len(d.pool) > sz.prefixes {
		d.pool = d.pool[:sz.prefixes]
	}
	d.poolPos = make([][]int, len(d.pool))
	d.poolErr = make([][]int, len(d.pool))
	for i, p := range d.pool {
		// Values sharing a prefix are contiguous in sorted order.
		var ps []int
		for j := sort.SearchStrings(distinct, p); j < len(distinct) && strings.HasPrefix(distinct[j], p); j++ {
			ps = append(ps, d.valPos[distinct[j]]...)
		}
		sort.Ints(ps)
		d.poolPos[i] = ps
		if d.rows != nil {
			for _, pos := range ps {
				if d.rows[pos][0].U64() >= errStatus {
					d.poolErr[i] = append(d.poolErr[i], pos)
				}
			}
		}
	}
}

// below counts the entries of an ascending position list that are < pos.
func below(ps []int, pos int) int { return sort.SearchInts(ps, pos) }

func (d *dataset) rank(v string, pos int) int { return below(d.valPos[v], pos) }
func (d *dataset) count(v string) int         { return len(d.valPos[v]) }

func (d *dataset) sel(v string, idx int) (int, bool) {
	if ps := d.valPos[v]; idx < len(ps) {
		return ps[idx], true
	}
	return 0, false
}

func (d *dataset) rankPrefix(pfx, pos int) int { return below(d.poolPos[pfx], pos) }
func (d *dataset) countPrefix(pfx int) int     { return len(d.poolPos[pfx]) }

func (d *dataset) selectPrefix(pfx, idx int) (int, bool) {
	if ps := d.poolPos[pfx]; idx < len(ps) {
		return ps[idx], true
	}
	return 0, false
}

// opKind names an op class; the names are the ones metrics and spans use.
type opKind uint8

const (
	opAppend opKind = iota
	opAccess
	opRank
	opSelect
	opCount
	opCountPrefix
	opRankPrefix
	opSelectPrefix
	opScanPrefix
	opScanWhere
	opRow
	opScan
	numKinds
)

var kindNames = [numKinds]string{"append", "access", "rank", "select", "count",
	"countprefix", "rankprefix", "selectprefix", "scanprefix", "scanwhere", "row", "scan"}

func (k opKind) String() string { return kindNames[k] }

// op is one request of a stream. What pos means follows the class: a
// position (access, rank, rankprefix, row, scan start), an occurrence
// or match index (select, selectprefix, scanprefix; scanwhere always
// reads its first page), or a batch number (append).
type op struct {
	kind opKind
	s    string // value or prefix
	pfx  int    // pool index of s for the prefix classes
	pos  int
}

func (o op) String() string { return fmt.Sprintf("%s %q %d", o.kind, o.s, o.pos) }

// mixEntry is one op class's share of a workload, in percent.
type mixEntry struct {
	kind opKind
	pct  int
}

// opGen draws one client's op stream. Streams are a function of the
// seed, the client number and the dataset alone, so a run sends the
// same requests on both sides of a comparison.
type opGen struct {
	d     *dataset
	mix   []mixEntry
	rng   *rand.Rand
	poolZ *rand.Zipf
	hotZ  *rand.Zipf
	// Appends walk the append stream batch by batch, client c taking
	// batches c, c+clients, …; batches counts how many it has drawn.
	client, clients, batch, batches int
}

func newOpGen(d *dataset, mix []mixEntry, seed int64, client, clients, batch int) *opGen {
	g := &opGen{d: d, mix: mix, client: client, clients: clients, batch: batch,
		rng: rand.New(rand.NewSource(seed*1000003 + int64(client)))}
	if len(d.pool) > 1 {
		g.poolZ = rand.NewZipf(g.rng, 1.1, 1, uint64(len(d.pool)-1))
	}
	if len(d.hot) > 1 {
		g.hotZ = rand.NewZipf(g.rng, 1.1, 1, uint64(len(d.hot)-1))
	}
	return g
}

func (g *opGen) prefix() (int, string) {
	i := int(g.poolZ.Uint64())
	return i, g.d.pool[i]
}

// appendBatch returns the values (and rows) of append op o.
func (g *opGen) appendBatch(o op) ([]string, []store.Row) {
	per := len(g.d.app) / g.batch
	lo := (o.pos % per) * g.batch
	if g.d.appRows == nil {
		return g.d.app[lo : lo+g.batch], nil
	}
	return g.d.app[lo : lo+g.batch], g.d.appRows[lo : lo+g.batch]
}

// next draws the stream's next op: a class by the mix, then arguments.
func (g *opGen) next() op {
	kind, roll := g.mix[len(g.mix)-1].kind, g.rng.Intn(100)
	for _, m := range g.mix {
		if roll < m.pct {
			kind = m.kind
			break
		}
		roll -= m.pct
	}
	return g.draw(kind)
}

// draw draws the arguments of one op of the given class.
func (g *opGen) draw(kind opKind) op {
	d, n := g.d, len(g.d.seq)
	o := op{kind: kind}
	switch kind {
	case opAppend:
		o.pos = g.client + g.batches*g.clients
		g.batches++
	case opAccess, opRow:
		o.pos = g.rng.Intn(n)
	case opRank:
		o.s, o.pos = d.seq[g.rng.Intn(n)], g.rng.Intn(n+1)
	case opSelect:
		o.s = d.seq[g.rng.Intn(n)] // frequency-weighted value
		o.pos = g.rng.Intn(d.count(o.s))
	case opCount:
		o.s = d.hot[g.hotZ.Uint64()]
	case opCountPrefix:
		o.pfx, o.s = g.prefix()
	case opRankPrefix:
		o.pfx, o.s = g.prefix()
		o.pos = g.rng.Intn(n + 1)
	case opSelectPrefix, opScanPrefix:
		o.pfx, o.s = g.prefix()
		o.pos = g.rng.Intn(d.countPrefix(o.pfx))
	case opScanWhere:
		o.pfx, o.s = g.prefix() // first page: pos stays 0
	case opScan:
		o.pos = g.rng.Intn(n - scanPage + 1)
	}
	return o
}
