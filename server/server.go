package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/store"
)

// Options tune a Server. The zero value (or a nil pointer) selects the
// defaults below.
type Options struct {
	// MaxConns bounds the concurrently served connections. Further
	// accepts wait for a slot — backpressure at the door instead of an
	// unbounded goroutine pile. Default 256.
	MaxConns int
	// CacheEntries is accepted and ignored: the result cache is gone. The
	// field stays only because bench/ still sets it; the next benchmark PR
	// drops it.
	CacheEntries int
	// MaxBatch caps the values in one group commit (and the pending
	// append queue length). Default 1024.
	MaxBatch int
	// SlowOp is the latency threshold above which a request — a frame or
	// a gateway call — is logged, naming the op, its key shape and the
	// visible length of the view that served it. 0 disables the slow-op
	// log.
	SlowOp time.Duration
	// SlowOpLog receives the slow-op lines; nil selects log.Printf.
	// Mostly for tests and callers with structured logging.
	SlowOpLog func(format string, args ...any)
	// ReplHeartbeat is the idle cadence of replication heartbeat frames
	// (primary liveness and follower lag measurement). Default 2s.
	ReplHeartbeat time.Duration
}

func (o *Options) withDefaults() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.MaxConns <= 0 {
		out.MaxConns = 256
	}
	if out.MaxBatch <= 0 {
		out.MaxBatch = 1024
	}
	if out.ReplHeartbeat <= 0 {
		out.ReplHeartbeat = 2 * time.Second
	}
	return out
}

// errDraining reports a write refused because the server is shutting
// down.
var errDraining = errors.New("server: draining")

// Server serves a store.Store over the binary
// protocol (Serve) and the HTTP/JSON gateway (HTTPHandler). The write
// path is group-committed, every read request pins the store's current
// view once (a pointer load while the store is unchanged) and queries it,
// and Shutdown drains gracefully: in-flight requests finish, queued
// appends commit, then connections close. Construct with New; the Server
// does not own the store — closing it after Shutdown is the caller's job.
type Server struct {
	db   *store.Store
	opts Options

	appendCh chan appendReq
	sendMu   sync.RWMutex // gates appendCh against close during drain
	sendOff  bool         // guarded by sendMu: no further submits

	drainCh  chan struct{}
	draining atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	wgConns  sync.WaitGroup
	wgCommit sync.WaitGroup

	repl   *replHub
	follow atomic.Pointer[followSession]
}

// New returns a Server over db and starts its background work (the
// group-commit committer). Call Shutdown to stop it.
func New(db *store.Store, opts *Options) *Server {
	s := &Server{
		db:        db,
		opts:      opts.withDefaults(),
		drainCh:   make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	// The hub's head adopts the store's current length: global sequence
	// numbers ARE positions in the append-only sequence.
	s.repl = newReplHub(uint64(db.Snapshot().Len()))
	s.appendCh = make(chan appendReq, s.opts.MaxBatch)
	s.wgCommit.Add(1)
	go s.committer()
	liveServers.add(s)
	return s
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Serve accepts connections on l and serves the binary protocol until
// Shutdown (which returns nil here) or an accept error. Connections
// beyond Options.MaxConns wait in the listen backlog.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return errDraining
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()

	sem := make(chan struct{}, s.opts.MaxConns)
	for {
		select {
		case sem <- struct{}{}:
		case <-s.drainCh:
			return nil
		}
		conn, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wgConns.Add(1)
		s.mu.Unlock()
		smet.conns.Inc()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				<-sem
				s.wgConns.Done()
			}()
			s.serveConn(conn)
		}()
	}
}

// connState is what one connection's request loop reuses from request to
// request, so a point read allocates for its answer and nothing else.
type connState struct {
	frame []byte      // the request frame
	resp  wire.Writer // the response payload
	page  wire.Writer // a scan page's matches, encoded as the cursor yields them
	// viewLen is the visible length of the view the request pinned, -1 for
	// a request that pinned none — what the slow-op line reports.
	viewLen int
	// err is the error the request was answered with, nil for statusOK:
	// the gateway maps it to an HTTP status.
	err error
}

// connIdleBuf is the most a connection keeps of each buffer between
// requests: one large frame or page grows a buffer for that request only.
const connIdleBuf = 64 << 10

// release drops the buffers the last request grew past connIdleBuf.
func (c *connState) release() {
	if cap(c.frame) > connIdleBuf {
		c.frame = nil
	}
	if cap(c.resp.Bytes()) > connIdleBuf {
		c.resp = wire.Writer{}
	}
	if cap(c.page.Bytes()) > connIdleBuf {
		c.page = wire.Writer{}
	}
}

// serveConn runs one connection's request loop: read a frame, decode,
// dispatch, respond. A malformed frame or decode error closes the
// connection (the stream cannot be trusted past it); an op-level error
// is a statusErr response and the stream continues.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var c connState
	for {
		if s.draining.Load() {
			return
		}
		var err error
		if c.frame, err = readFrame(br, c.frame); err != nil {
			return
		}
		resp, ready, sub := s.step(&c, c.frame)
		if sub.Op == OpSubscribe {
			// A subscription consumes the connection: it never returns to
			// the request loop.
			s.serveSubscribe(conn, br, bw, sub)
			return
		}
		conn.SetWriteDeadline(ready.Add(time.Minute))
		if err := writeFrame(bw, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		c.release()
	}
}

// step is the request loop's per-request work: parse the frame and serve
// it. resp is valid until the next step on c; ready is when it was ready,
// which also dates the write deadline. A well-formed OpSubscribe is not
// answered here: it comes back as sub for the loop to hand the connection
// over.
func (s *Server) step(c *connState, frame []byte) (resp []byte, ready time.Time, sub Request) {
	t0 := time.Now()
	req, err := ParseRequest(frame)
	if err == nil && req.Op == OpSubscribe {
		smet.requests.Inc()
		return nil, t0, req
	}
	resp, ready = s.serve(c, t0, &req, err)
	return resp, ready, Request{}
}

// serve answers one request that arrived at t0 — parsed from a frame by
// step, or built from a URL by the gateway — out of c's buffers, and
// records it: the requests and errors counters, the op's latency series
// and the slow-op log. A non-nil err is the request's decode failure,
// answered as such.
func (s *Server) serve(c *connState, t0 time.Time, req *Request, err error) (resp []byte, ready time.Time) {
	smet.requests.Inc()
	c.viewLen, c.err = -1, nil
	if err != nil {
		smet.errors.Inc()
		resp = c.fail(err)
	} else {
		resp = s.respond(c, req)
	}
	ready = time.Now()
	elapsed := ready.Sub(t0)
	// req.Op is 0 when the opcode did not parse — the "invalid" series.
	smet.observeOp(req.Op, elapsed.Nanoseconds())
	if s.opts.SlowOp > 0 && elapsed >= s.opts.SlowOp {
		s.logSlowOp(req, elapsed, c.viewLen)
	}
	return resp, ready
}

// logSlowOp emits the slow-op log line for a request whose service time
// crossed Options.SlowOp: the op, its key shape, the latency, and the
// visible length of the view that served it (- when the op pinned none) —
// enough to correlate with /metrics series and replay the query.
func (s *Server) logSlowOp(req *Request, elapsed time.Duration, viewLen int) {
	view := "-"
	if viewLen >= 0 {
		view = strconv.Itoa(viewLen)
	}
	s.logf("server: slow op %s %s took %s (view len=%s, threshold %s)",
		opName(req.Op), keyShape(req), elapsed, view, s.opts.SlowOp)
}

// logf writes the server's log lines — slow ops, follower reconnects —
// through Options.SlowOpLog, so tests can capture them; nil falls back
// to the standard logger.
func (s *Server) logf(format string, args ...any) {
	logf := s.opts.SlowOpLog
	if logf == nil {
		logf = log.Printf
	}
	logf(format, args...)
}

// fail answers the request with a statusErr response carrying err's text in
// the connection's buffer, discarding whatever the op had encoded so far,
// and keeps err for the gateway.
func (c *connState) fail(err error) []byte {
	c.err = err
	c.resp.Reset()
	c.resp.Byte(statusErr)
	c.resp.Str(err.Error())
	return c.resp.Bytes()
}

// errPayload builds a statusErr response payload outside a request loop.
func errPayload(msg string) []byte { return new(connState).fail(errors.New(msg)) }

// pin returns the store's current view for a read request — the one view
// every query of the request sees — and notes its length for the slow-op
// line.
func (s *Server) pin(c *connState) *store.Snapshot {
	sn := s.db.Snapshot()
	c.viewLen = sn.Len()
	return sn
}

// respond executes one request and encodes its response payload into
// c.resp. Query panics (out-of-range positions, say) surface as error
// responses, never as a dead server.
func (s *Server) respond(c *connState, req *Request) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			smet.errors.Inc()
			out = c.fail(errors.New(fmt.Sprint(r)))
		}
	}()
	w := &c.resp
	w.Reset()
	w.Byte(statusOK)
	switch req.Op {
	case OpPing:
		if req.Pos != ProtocolVersion {
			return c.fail(fmt.Errorf("server: protocol version %d not supported, want %d", req.Pos, ProtocolVersion))
		}
		w.Uvarint(ProtocolVersion)
	case OpAppend:
		seq, err := s.submitAppend([]string{req.Value}, req.Rows)
		if err != nil {
			return c.fail(err)
		}
		w.Uvarint(seq)
	case OpAppendBatch:
		seq, err := s.submitAppend(req.Values, req.Rows)
		if err != nil {
			return c.fail(err)
		}
		w.Uvarint(uint64(len(req.Values)))
		w.Uvarint(seq)
	case OpRow:
		encodeRow(w, s.pin(c).Row(req.Pos))
	case OpScanWhere:
		if err := s.scanWhere(c, req); err != nil {
			return c.fail(err)
		}
	case OpCountWhere:
		n, err := s.pin(c).CountWhere(req.Value, req.Preds...)
		if err != nil {
			return c.fail(err)
		}
		w.Uvarint(uint64(n))
	case OpAccess:
		w.Str(s.pin(c).Access(req.Pos))
	case OpRank:
		w.Uvarint(uint64(s.pin(c).Rank(req.Value, req.Pos)))
	case OpCount:
		w.Uvarint(uint64(s.pin(c).Count(req.Value)))
	case OpSelect:
		pos, ok := s.pin(c).Select(req.Value, req.Pos)
		writeOptPos(w, pos, ok)
	case OpRankPrefix:
		w.Uvarint(uint64(s.pin(c).RankPrefix(req.Value, req.Pos)))
	case OpCountPrefix:
		w.Uvarint(uint64(s.pin(c).CountPrefix(req.Value)))
	case OpSelectPrefix:
		pos, ok := s.pin(c).SelectPrefix(req.Value, req.Pos)
		writeOptPos(w, pos, ok)
	case OpIterate:
		if err := s.iterate(c, req); err != nil {
			return c.fail(err)
		}
	case OpIteratePrefix:
		s.iteratePrefix(c, req)
	case OpFlush:
		if err := s.db.Flush(); err != nil {
			return c.fail(err)
		}
	case OpCompact:
		if err := s.db.Compact(); err != nil {
			return c.fail(err)
		}
	case OpReplWait:
		// Clamped in milliseconds: a wire Max up to 2^62 would overflow
		// the Duration and wait not at all.
		ms := min(req.Max, int(replWaitCap/time.Millisecond))
		if s.waitWatermark(req.Seq, time.Duration(ms)*time.Millisecond) {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
		w.Uvarint(s.repl.watermark())
	case OpPromote:
		if s.Promote() {
			w.Byte(1)
		} else {
			w.Byte(0)
		}
	case OpStats:
		st := s.stats()
		c.viewLen = st.Len
		encodeStats(w, st)
	case OpMetrics:
		// The reply is the same Prometheus text the gateway's /metrics
		// serves — one snapshot format across every surface.
		w.Str(obs.Default().TextSnapshot())
	default:
		return c.fail(fmt.Errorf("server: unknown opcode %d", req.Op))
	}
	return w.Bytes()
}

// writeOptPos encodes a (pos, ok) result.
func writeOptPos(w *wire.Writer, pos int, ok bool) {
	if ok {
		w.Byte(1)
		w.Uvarint(uint64(pos))
	} else {
		w.Byte(0)
	}
}

// iterate serves one OpIterate page: positions [Pos, end) of the
// sequence, where end is the length the walk's first page pinned and
// every later page echoes back in Seq. No state survives the request:
// the sequence is append-only, so positions below end hold the same
// values in every later view and today's serves exactly what the first
// page's would have. An echoed end past the current length names
// positions this server has never held — a client that switched
// servers, or a hostile one — and is an error, never a clamp.
//
// The page holds at most Max values (maxIterBatch when Max is 0 or above
// it; none when it is negative, which only the gateway asks for). It is
// the empty prefix's page from match Pos — every position matches it — cut
// at end, so fillPage's byte budget and the store's run-wise decoding serve
// it as they serve a scan, its values handed over as bytes. The entries
// are values alone: their positions follow from the start.
func (s *Server) iterate(c *connState, req *Request) error {
	sn := s.pin(c)
	end := sn.Len()
	if req.Seq > uint64(end) {
		return fmt.Errorf("server: iterate end %d is past the sequence length %d", req.Seq, end)
	}
	if req.Seq != 0 {
		end = int(req.Seq)
	}
	start := min(req.Pos, end)
	max := req.Max
	if max == 0 || max > maxIterBatch {
		max = maxIterBatch
	}
	hi := min(end, start+max)
	if start < 0 && start < hi {
		// Only the gateway can send a negative start (a wire position is
		// unsigned). It is refused in the words of the store's positional
		// range check (Snapshot.Iterate), which the gateway has always
		// answered it with.
		return fmt.Errorf("store: Iterate(%d,%d) out of range [0,%d]", start, hi, end)
	}
	n, _ := s.fillPage(c, hi-start, false, false, func(max int, fn func(idx, pos int, v []byte, row store.Row) bool) bool {
		return sn.ScanPrefix("", start, max, func(idx, pos int, v []byte) bool { return fn(idx, pos, v, nil) })
	})
	w := &c.resp
	w.Uvarint(uint64(end))
	if start+n >= end {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(start))
	w.Uvarint(uint64(n))
	w.Raw(c.page.Bytes())
	return nil
}

// iterByteBudget bounds a streamed batch by bytes as well as by count:
// large values could otherwise encode past MaxFrame and kill the
// connection instead of answering. A value counts as its length plus a
// worst-case position and length prefix.
const iterByteBudget = 4 << 20

// maxIterBatch caps the values in one Iterate or scan page, and is the
// page size a client that asks for 0 gets.
const maxIterBatch = 4096

// writePage answers one scan request: up to max matches (maxIterBatch when
// max is not positive or above it), filled by fillPage, behind a header of
// the done flag, the echoed match offset and the count.
func (s *Server) writePage(c *connState, from, max int, rows bool, scan func(max int, fn func(idx, pos int, v []byte, row store.Row) bool) (more bool)) {
	if max <= 0 || max > maxIterBatch {
		max = maxIterBatch
	}
	n, more := s.fillPage(c, max, true, rows, scan)
	w := &c.resp
	if more {
		w.Byte(0)
	} else {
		w.Byte(1)
	}
	w.Uvarint(uint64(from))
	w.Uvarint(uint64(n))
	w.Raw(c.page.Bytes())
}

// fillPage encodes one page into c.page: up to max matches (none when max
// is not positive) within the byte budget, and at least one when any
// exists, so a resuming client always makes progress. It returns how many
// it encoded and whether more matches lie past them. scan runs the store's
// page form (ScanPrefix, ScanWhere), which finds the page's positions,
// decodes their values together a run at a time, handing each run over
// before decoding the next, and reports whether more matches lie past the
// page, the one that tells it a position only. So the budget stops the
// decoding too, within a run of where it stops the page: the store holds a
// run's values and rows at a time (a page of up to 64 matches at once, a
// longer one its first match, then about a MiB's worth), never a long
// page's. Each match is encoded as it is handed over — with
// positions, its position; its value; with rows, the payload row — and
// counted against the budget.
func (s *Server) fillPage(c *connState, max int, positions, rows bool, scan func(max int, fn func(idx, pos int, v []byte, row store.Row) bool) (more bool)) (n int, more bool) {
	body := &c.page
	body.Reset()
	if max <= 0 {
		return 0, false
	}
	bytes := 0
	more = scan(max, func(_, pos int, v []byte, row store.Row) bool {
		n++
		bytes += len(v) + 18
		if positions {
			body.Uvarint(uint64(pos))
		}
		body.Uvarint(uint64(len(v)))
		body.Raw(v)
		if rows {
			for _, cell := range row {
				bytes += len(cell.Blob()) + 10
			}
			encodeRow(body, row)
		}
		return bytes < iterByteBudget
	})
	return n, more
}

// iteratePrefix serves one OpIteratePrefix batch: positions and values
// of elements with the requested prefix, starting at the Pos-th match.
// The sequence is append-only, so a match index permanently names the
// same element and the client resumes statelessly by echoing the next
// index — the store seeks to it by rank arithmetic rather than
// replaying the stream.
func (s *Server) iteratePrefix(c *connState, req *Request) {
	sn := s.pin(c)
	s.writePage(c, req.Pos, req.Max, false, func(max int, fn func(idx, pos int, v []byte, row store.Row) bool) bool {
		return sn.ScanPrefix(req.Value, req.Pos, max, func(idx, pos int, v []byte) bool { return fn(idx, pos, v, nil) })
	})
}

// scanWhere serves one OpScanWhere batch: positions, values and
// payload rows of elements matching the prefix and every numeric
// predicate, starting at the Pos-th match. Pagination is stateless like
// iteratePrefix.
func (s *Server) scanWhere(c *connState, req *Request) error {
	sn := s.pin(c)
	var err error
	s.writePage(c, req.Pos, req.Max, true, func(max int, fn func(idx, pos int, v []byte, row store.Row) bool) (more bool) {
		more, err = sn.ScanWhere(req.Value, req.Pos, max, req.Preds, fn)
		return more
	})
	return err
}

// stats builds the OpStats reply. It is the one request that asks for the
// distinct count, which the snapshot derives by walking its tries' shapes
// (store.Snapshot.AlphabetSize) — milliseconds, so a reply for an
// operator, not for a hot loop.
func (s *Server) stats() Stats {
	sn, ri := s.db.Snapshot(), s.db.RouterInfo()
	st := Stats{
		Len:        sn.Len(),
		Distinct:   sn.AlphabetSize(),
		Height:     sn.Height(),
		SizeBits:   sn.SizeBits(),
		MemLen:     s.db.MemLen(),
		Shards:     s.db.ShardCount(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Watermark:  s.repl.watermark(),
		Following:  s.Following(),
		Followers:  s.repl.followerCount(),
		Schema:     s.db.Schema(),

		RouterBits: ri.Bits, RouterFrozenChunks: ri.FrozenChunks, RouterTailChunks: ri.TailChunks,
	}
	for _, g := range s.db.Generations() {
		st.Gens = append(st.Gens, GenStat{
			ID: g.ID, Len: g.Len, SizeBits: g.SizeBits,
			MinValue: g.MinValue, MaxValue: g.MaxValue,
		})
	}
	return st
}

// Shutdown drains the server: stop accepting, let in-flight requests
// finish (any queued appends still commit), then close connections and
// stop the background work. The context bounds the wait — when it
// expires, remaining connections are closed forcibly. The store itself
// is not closed; that is the caller's next step. Safe to call more
// than once. Callers routing writes through the HTTP gateway should
// shut that HTTP server down first — gateway requests arriving after
// the drain get errDraining.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	liveServers.remove(s)
	close(s.drainCh)
	// Stop following before draining connections: the follow loop's
	// applies go through the same commit path as queued appends.
	if fs := s.follow.Swap(nil); fs != nil {
		close(fs.stop)
		fs.closeConn()
		<-fs.done
	}
	s.mu.Lock()
	for l := range s.listeners {
		l.Close()
	}
	// Unblock handlers parked in a frame read; mid-request handlers
	// finish their response first (the deadline only gates reads).
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	err := s.waitConns(ctx)

	// No connection handler is left; refuse any further submits (late
	// HTTP gateway calls) and retire the committer once the queue is
	// fully committed.
	s.sendMu.Lock()
	s.sendOff = true
	s.sendMu.Unlock()
	close(s.appendCh)
	s.wgCommit.Wait()
	return err
}

// waitConns waits for connection handlers, force-closing stragglers
// when ctx expires.
func (s *Server) waitConns(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wgConns.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
