package main

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/server"
	"repro/store"
)

// opTimeout is the per-op limit: a reply slower than this counts as a
// failed op, exactly like an error or a wrong answer.
const opTimeout = 5 * time.Second

// checker sends one op over a connection and checks the reply against
// the dataset. live marks a store that takes appends during the run
// (mixed): reads there target the preloaded prefix, whose answers
// cannot change, and the two count classes — which do see appended
// values — are range-checked against how much has been submitted.
type checker struct {
	cl   *server.Client
	d    *dataset
	g    *opGen
	live bool
	sent *atomic.Int64 // values submitted so far, all clients
}

// mismatch is a reply that disagrees with the oracle (or came too
// late) — as opposed to a transport failure, after which the
// connection is unusable.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return m.msg }

func wrong(o op, format string, args ...any) error {
	return &mismatch{fmt.Sprintf("%v: %s", o, fmt.Sprintf(format, args...))}
}

func rowsEqual(a, b store.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || a[i].U64() != b[i].U64() {
			return false
		}
	}
	return true
}

// inRange checks a count that appended values may have raised.
func (c *checker) inRange(o op, got, preload int) error {
	hi := preload
	if c.live {
		hi += int(c.sent.Load())
	}
	if got < preload || got > hi {
		return wrong(o, "got %d, want %d..%d", got, preload, hi)
	}
	return nil
}

func (c *checker) do(o op) error {
	d := c.d
	switch o.kind {
	case opAppend:
		vs, rows := c.g.appendBatch(o)
		c.sent.Add(int64(len(vs)))
		return c.cl.AppendBatchRows(vs, rows)
	case opAccess:
		got, err := c.cl.Access(o.pos)
		if err == nil && got != d.seq[o.pos] {
			err = wrong(o, "got %q, want %q", got, d.seq[o.pos])
		}
		return err
	case opRow:
		got, err := c.cl.Row(o.pos)
		if err == nil && !rowsEqual(got, d.rows[o.pos]) {
			err = wrong(o, "got %v, want %v", got, d.rows[o.pos])
		}
		return err
	case opRank:
		got, err := c.cl.Rank(o.s, o.pos)
		if want := d.rank(o.s, o.pos); err == nil && got != want {
			err = wrong(o, "got %d, want %d", got, want)
		}
		return err
	case opRankPrefix:
		got, err := c.cl.RankPrefix(o.s, o.pos)
		if want := d.rankPrefix(o.pfx, o.pos); err == nil && got != want {
			err = wrong(o, "got %d, want %d", got, want)
		}
		return err
	case opCount:
		got, err := c.cl.Count(o.s)
		if err != nil {
			return err
		}
		return c.inRange(o, got, d.count(o.s))
	case opCountPrefix:
		got, err := c.cl.CountPrefix(o.s)
		if err != nil {
			return err
		}
		return c.inRange(o, got, d.countPrefix(o.pfx))
	case opSelect:
		got, ok, err := c.cl.Select(o.s, o.pos)
		if want, _ := d.sel(o.s, o.pos); err == nil && (!ok || got != want) {
			err = wrong(o, "got %d,%v, want %d", got, ok, want)
		}
		return err
	case opSelectPrefix:
		got, ok, err := c.cl.SelectPrefix(o.s, o.pos)
		if want, _ := d.selectPrefix(o.pfx, o.pos); err == nil && (!ok || got != want) {
			err = wrong(o, "got %d,%v, want %d", got, ok, want)
		}
		return err
	case opScanPrefix:
		k, bad := 0, error(nil)
		err := c.cl.ScanPrefix(o.s, o.pos, prefixPage, prefixPage, func(idx, pos int, v string) bool {
			k++
			bad = c.checkMatch(o, d.poolPos[o.pfx], idx, pos, v)
			return bad == nil
		})
		if err == nil {
			err = bad
		}
		if err == nil {
			err = c.checkPage(o, k, prefixPage, len(d.poolPos[o.pfx]))
		}
		return err
	case opScanWhere:
		preds := []store.Pred{{Col: 0, Op: store.PredGE, Val: errStatus}}
		k, bad := 0, error(nil)
		err := c.cl.ScanWhere(o.s, preds, o.pos, wherePage, wherePage, func(idx, pos int, v string, row store.Row) bool {
			k++
			if bad = c.checkMatch(o, d.poolErr[o.pfx], idx, pos, v); bad == nil {
				if pos < len(d.rows) && !rowsEqual(row, d.rows[pos]) {
					bad = wrong(o, "row at %d: got %v, want %v", pos, row, d.rows[pos])
				} else if len(row) == 0 || row[0].U64() < errStatus {
					bad = wrong(o, "row at %d fails the predicate: %v", pos, row)
				}
			}
			return bad == nil
		})
		if err == nil {
			err = bad
		}
		if err == nil {
			err = c.checkPage(o, k, wherePage, len(d.poolErr[o.pfx]))
		}
		return err
	case opScan:
		k, bad := 0, error(nil)
		err := c.cl.Scan(o.pos, scanPage, scanPage, func(pos int, v string) bool {
			if pos != o.pos+k || v != d.seq[pos] {
				bad = wrong(o, "element %d: got %d %q", k, pos, v)
			}
			k++
			return bad == nil
		})
		if err == nil {
			err = bad
		}
		if err == nil && k != scanPage {
			err = wrong(o, "got %d elements, want %d", k, scanPage)
		}
		return err
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// checkMatch checks one streamed match against the preload's match
// list; a match past the list can only be an appended value, which must
// sit after the preload and carry the prefix.
func (c *checker) checkMatch(o op, matches []int, idx, pos int, v string) error {
	if idx < len(matches) {
		if pos != matches[idx] || v != c.d.seq[pos] {
			return wrong(o, "match %d: got %d %q, want %d %q", idx, pos, v, matches[idx], c.d.seq[matches[idx]])
		}
		return nil
	}
	if !c.live || pos < len(c.d.seq) || !strings.HasPrefix(v, o.s) {
		return wrong(o, "match %d: unexpected %d %q", idx, pos, v)
	}
	return nil
}

// checkPage checks how many matches a page starting at o.pos returned.
func (c *checker) checkPage(o op, got, page, total int) error {
	want := total - o.pos
	if want > page {
		want = page
	}
	if want < 0 {
		want = 0
	}
	if got < want || got > page || (!c.live && got != want) {
		return wrong(o, "page of %d matches, want %d", got, want)
	}
	return nil
}

// span is one traced interval: a call the harness made into a layer.
// Spans of one run share the run's root; Parent is 0 at the root.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer hands out span ids and collects finished spans in memory; a
// nil tracer records nothing, which is how the untraced pass runs.
type tracer struct {
	workload string
	epoch    time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, epoch: time.Now()} }

// begin opens a span; call the returned func to close it.
func (t *tracer) begin(parent int64, name string) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.next.Add(1)
	start := time.Since(t.epoch).Nanoseconds()
	return id, func() {
		s := span{ID: id, Parent: parent, Workload: t.workload, Name: name,
			StartNS: start, EndNS: time.Since(t.epoch).Nanoseconds()}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// phaseResult is what one closed-loop phase measured.
type phaseResult struct {
	start time.Time
	wall  time.Duration
	// One entry per completed, correct op.
	ends      []float64 // completion offset from start, ns
	lats      []float64 // round trip, ns
	kinds     []opKind
	attempted int
	failed    int
	acked     []int // append batches acknowledged, per client
	errs      []string
}

func (p *phaseResult) ops() int { return p.attempted - p.failed }

// add pools q's samples and counts into p.
func (p *phaseResult) add(q *phaseResult) {
	p.ends = append(p.ends, q.ends...)
	p.lats = append(p.lats, q.lats...)
	p.kinds = append(p.kinds, q.kinds...)
	p.attempted += q.attempted
	p.failed += q.failed
	for _, e := range q.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// byClass groups the round trips by op class.
func (p *phaseResult) byClass() map[opKind][]float64 {
	out := map[opKind][]float64{}
	for i, k := range p.kinds {
		out[k] = append(out[k], p.lats[i])
	}
	return out
}

// noteFailure keeps the first few failure texts for the report.
func (p *phaseResult) noteFailure(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// runPhase drives the closed loop: every client goroutine owns one
// connection and sends its next op only when the previous reply has
// been checked. It stops drawing ops at the deadline. With a tracer,
// each request is also recorded as a client.<op> span under parent.
func runPhase(addr string, d *dataset, gens []*opGen, live bool, sent *atomic.Int64,
	dur time.Duration, tr *tracer, parent int64) (*phaseResult, error) {
	res := &phaseResult{acked: make([]int, len(gens))}
	parts := make([]*phaseResult, len(gens))
	spans := make([][]span, len(gens))
	conns := make([]*server.Client, len(gens))
	for i := range gens {
		cl, err := server.Dial(addr)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		conns[i] = cl
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, g := range gens {
		wg.Add(1)
		go func(i int, g *opGen) {
			defer wg.Done()
			p := &phaseResult{}
			parts[i] = p
			c := &checker{cl: conns[i], d: d, g: g, live: live, sent: sent}
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				o := g.next()
				err := c.do(o)
				t1 := time.Now()
				p.attempted++
				if err == nil && t1.Sub(t0) > opTimeout {
					err = wrong(o, "took %v, limit %v", t1.Sub(t0), opTimeout)
				}
				if err != nil {
					p.noteFailure(err)
					var se *server.ServerError
					var mm *mismatch
					if !errors.As(err, &se) && !errors.As(err, &mm) {
						return // transport failure: the connection is gone
					}
					continue
				}
				if o.kind == opAppend {
					res.acked[i]++
				}
				p.ends = append(p.ends, float64(t1.Sub(start)))
				p.lats = append(p.lats, float64(t1.Sub(t0)))
				p.kinds = append(p.kinds, o.kind)
				if tr != nil {
					spans[i] = append(spans[i], span{ID: tr.next.Add(1), Parent: parent,
						Workload: tr.workload, Name: "client." + o.kind.String(),
						StartNS: t0.Sub(tr.epoch).Nanoseconds(), EndNS: t1.Sub(tr.epoch).Nanoseconds()})
				}
			}
		}(i, g)
	}
	wg.Wait()
	res.start, res.wall = start, time.Since(start)
	for i, p := range parts {
		res.add(p)
		if tr != nil {
			tr.mu.Lock()
			tr.spans = append(tr.spans, spans[i]...)
			tr.mu.Unlock()
		}
	}
	return res, nil
}
