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
	// MaxIterBatch caps the values returned by one Iterate call (also
	// the default when the client asks for 0). Default 4096.
	MaxIterBatch int
	// SlowOp is the latency threshold above which a binary-protocol
	// request is logged, naming the op, its key shape and the visible
	// length of the view that served it. 0 disables the slow-op log.
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
	if out.MaxIterBatch <= 0 {
		out.MaxIterBatch = 4096
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

// step is the request loop's per-request work: parse the frame, answer it
// out of c's buffers, record the op's latency. resp is valid until the next
// step on c; ready is when it was ready, which also dates the write
// deadline. A well-formed OpSubscribe is not answered here: it comes back
// as sub for the loop to hand the connection over.
func (s *Server) step(c *connState, frame []byte) (resp []byte, ready time.Time, sub Request) {
	t0 := time.Now()
	smet.requests.Inc()
	req, err := ParseRequest(frame)
	if err == nil && req.Op == OpSubscribe {
		return nil, t0, req
	}
	c.viewLen = -1
	if err != nil {
		smet.errors.Inc()
		resp = c.fail(err.Error())
	} else {
		resp = s.respond(c, &req)
	}
	ready = time.Now()
	elapsed := ready.Sub(t0)
	// req.Op is 0 when the parse failed — the "invalid" series.
	smet.observeOp(req.Op, elapsed.Nanoseconds())
	if s.opts.SlowOp > 0 && elapsed >= s.opts.SlowOp {
		s.logSlowOp(&req, elapsed, c.viewLen)
	}
	return resp, ready, Request{}
}

// logSlowOp emits the slow-op log line for a request whose service time
// crossed Options.SlowOp: the op, its key shape, the latency, and the
// visible length of the view that served it (- when the op pinned none) —
// enough to correlate with /metrics series and replay the query.
func (s *Server) logSlowOp(req *Request, elapsed time.Duration, viewLen int) {
	logf := s.opts.SlowOpLog
	if logf == nil {
		logf = log.Printf
	}
	view := "-"
	if viewLen >= 0 {
		view = strconv.Itoa(viewLen)
	}
	logf("server: slow op %s %s took %s (view len=%s, threshold %s)",
		opName(req.Op), keyShape(req), elapsed, view, s.opts.SlowOp)
}

// fail answers the request with a statusErr response in the connection's
// buffer, discarding whatever the op had encoded so far.
func (c *connState) fail(msg string) []byte {
	c.resp.Reset()
	c.resp.Byte(statusErr)
	c.resp.Str(msg)
	return c.resp.Bytes()
}

// errPayload builds a statusErr response payload outside a request loop.
func errPayload(msg string) []byte { return new(connState).fail(msg) }

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
			out = c.fail(fmt.Sprint(r))
		}
	}()
	w := &c.resp
	w.Reset()
	w.Byte(statusOK)
	switch req.Op {
	case OpPing:
		if req.Pos != ProtocolVersion {
			return c.fail(fmt.Sprintf("server: protocol version %d not supported, want %d", req.Pos, ProtocolVersion))
		}
		w.Uvarint(ProtocolVersion)
	case OpAppend:
		seq, err := s.submitAppend([]string{req.Value}, req.Rows)
		if err != nil {
			return c.fail(err.Error())
		}
		w.Uvarint(seq)
	case OpAppendBatch:
		seq, err := s.submitAppend(req.Values, req.Rows)
		if err != nil {
			return c.fail(err.Error())
		}
		w.Uvarint(uint64(len(req.Values)))
		w.Uvarint(seq)
	case OpRow:
		encodeRow(w, s.pin(c).Row(req.Pos))
	case OpScanWhere:
		if err := s.scanWhere(c, req); err != nil {
			return c.fail(err.Error())
		}
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
			return c.fail(err.Error())
		}
	case OpIteratePrefix:
		s.iteratePrefix(c, req)
	case OpFlush:
		if err := s.db.Flush(); err != nil {
			return c.fail(err.Error())
		}
	case OpCompact:
		if err := s.db.Compact(); err != nil {
			return c.fail(err.Error())
		}
	case OpReplWait:
		if s.waitWatermark(req.Seq, time.Duration(req.Max)*time.Millisecond) {
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
		return c.fail(fmt.Sprintf("server: unknown opcode %d", req.Op))
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
	if max <= 0 || max > s.opts.MaxIterBatch {
		max = s.opts.MaxIterBatch
	}
	body := &c.page
	body.Reset()
	n := iteratePage(sn, start, min(end, start+max), body.Str)
	w := &c.resp
	w.Uvarint(uint64(end))
	if start+n >= end {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(start))
	w.Uvarint(uint64(n))
	w.Raw(body.Bytes())
	return nil
}

// iteratePage hands emit the values of positions [start, hi) in order
// and returns how many it handed: all of them, or fewer once the page
// holds iterByteBudget bytes, but at least one. The walked range is
// bounded by the page, not by the sequence's end: a sharded snapshot
// buffers a window of every shard's subrange per Iterate.
func iteratePage(sn *store.Snapshot, start, hi int, emit func(v string)) (n int) {
	if start >= hi {
		return 0
	}
	bytes := 0
	sn.Iterate(start, hi, func(_ int, v string) bool {
		if bytes >= iterByteBudget {
			return false
		}
		n++
		bytes += len(v) + 18
		emit(v)
		return true
	})
	return n
}

// iterByteBudget bounds a streamed batch by bytes as well as by count:
// large values could otherwise encode past MaxFrame and kill the
// connection instead of answering. A value counts as its length plus a
// worst-case position and length prefix.
const iterByteBudget = 4 << 20

// scanPage bounds one page of a position-and-value scan: emit is handed up
// to max matches (capped by MaxIterBatch) within the byte budget, and at
// least one when any exists, so a resuming client always makes progress.
// With rows, each match's payload row is fetched and counted against the
// budget. v is valid only during emit. It returns the match count and
// whether the stream ended inside the page.
func (s *Server) scanPage(sn *store.Snapshot, max int, rows bool, scan func(fn func(idx, pos int, v []byte) bool), emit func(pos int, v []byte, row store.Row)) (n int, done bool) {
	if max <= 0 || max > s.opts.MaxIterBatch {
		max = s.opts.MaxIterBatch
	}
	bytes, done := 0, true
	scan(func(_, pos int, v []byte) bool {
		if n >= max || bytes >= iterByteBudget {
			done = false // more matches exist past the page
			return false
		}
		n++
		bytes += len(v) + 18
		var row store.Row
		if rows {
			row = sn.Row(pos)
			for _, c := range row {
				bytes += len(c.Blob()) + 10
			}
		}
		emit(pos, v, row)
		return true
	})
	return n, done
}

// writePage answers one scan request. The page's matches are encoded into
// c.page as the cursor yields them — position, value and, with rows,
// payload row — so no match is held as a string or in a list; the header
// (done flag, the echoed match offset, the count, known only at the end)
// and the matches then go into the response.
func (s *Server) writePage(c *connState, sn *store.Snapshot, from, max int, rows bool, scan func(fn func(idx, pos int, v []byte) bool)) {
	body := &c.page
	body.Reset()
	n, done := s.scanPage(sn, max, rows, scan, func(pos int, v []byte, row store.Row) {
		body.Uvarint(uint64(pos))
		body.Uvarint(uint64(len(v)))
		body.Raw(v)
		if rows {
			encodeRow(body, row)
		}
	})
	w := &c.resp
	if done {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(from))
	w.Uvarint(uint64(n))
	w.Raw(body.Bytes())
}

// iteratePrefix serves one OpIteratePrefix batch: positions and values
// of elements with the requested prefix, starting at the Pos-th match.
// The sequence is append-only, so a match index permanently names the
// same element and the client resumes statelessly by echoing the next
// index — the store seeks to it by rank arithmetic rather than
// replaying the stream.
func (s *Server) iteratePrefix(c *connState, req *Request) {
	sn := s.pin(c)
	s.writePage(c, sn, req.Pos, req.Max, false, func(fn func(idx, pos int, v []byte) bool) {
		sn.ScanPrefix(req.Value, req.Pos, fn)
	})
}

// scanWhere serves one OpScanWhere batch: positions, values and
// payload rows of elements matching the prefix and every numeric
// predicate, starting at the Pos-th match. Pagination is stateless like
// iteratePrefix.
func (s *Server) scanWhere(c *connState, req *Request) error {
	sn := s.pin(c)
	var err error
	s.writePage(c, sn, req.Pos, req.Max, true, func(fn func(idx, pos int, v []byte) bool) {
		err = sn.ScanWhere(req.Value, req.Pos, req.Preds, fn)
	})
	return err
}

// stats builds the OpStats reply. It is the one request that asks for the
// distinct count, which the snapshot derives by walking its tries' shapes
// (store.Snapshot.AlphabetSize) — milliseconds, so a reply for an
// operator, not for a hot loop.
func (s *Server) stats() Stats {
	sn := s.db.Snapshot()
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
	}
	ri := s.db.RouterInfo()
	st.RouterBits = ri.Bits
	st.RouterFrozenChunks = ri.FrozenChunks
	st.RouterTailChunks = ri.TailChunks
	for _, g := range s.db.Generations() {
		st.Gens = append(st.Gens, GenStat{
			ID: g.ID, Len: g.Len, SizeBits: g.SizeBits,
			MinValue: g.MinValue, MaxValue: g.MaxValue,
		})
	}
	st.Schema = s.db.Schema()
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
