package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime"
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
	// CacheEntries sizes the result cache (total entries across its
	// shards). 0 selects the default 4096; negative disables caching.
	CacheEntries int
	// DisableGroupCommit routes every append straight to the store
	// instead of through the coalescing committer — one lock and WAL
	// write per request. For benchmarks and comparison; leave it off.
	DisableGroupCommit bool
	// MaxBatch caps the values in one group commit (and the pending
	// append queue length). Default 1024.
	MaxBatch int
	// MaxIterBatch caps the values returned by one Iterate call (also
	// the default when the client asks for 0). Default 4096.
	MaxIterBatch int
	// SlowOp is the latency threshold above which a binary-protocol
	// request is logged, naming the op, its key shape and the pinned
	// snapshot's fingerprint. 0 disables the slow-op log.
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
	if out.CacheEntries == 0 {
		out.CacheEntries = 4096
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

// Server serves a store.Store or store.ShardedStore over the binary
// protocol (Serve) and the HTTP/JSON gateway (HTTPHandler). The write
// path is group-committed, reads are served from per-request pinned
// snapshots with a fingerprint-keyed result cache in front, and
// Shutdown drains gracefully: in-flight requests finish, queued appends
// commit, then connections close. Construct with New; the Server does
// not own the store — closing it after Shutdown is the caller's job.
type Server struct {
	b    Backend
	opts Options

	cache *resultCache

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

// New returns a Server over b and starts its background work (the
// group-commit committer). Call Shutdown to stop it.
func New(b Backend, opts *Options) *Server {
	s := &Server{
		b:         b,
		opts:      opts.withDefaults(),
		drainCh:   make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
	s.cache = newResultCache(s.opts.CacheEntries)
	// The hub's head adopts the store's current length: global sequence
	// numbers ARE positions in the append-only sequence.
	s.repl = newReplHub(uint64(b.Snap().Len()))
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

// serveConn runs one connection's request loop: read a frame, decode,
// dispatch, respond. A malformed frame or decode error closes the
// connection (the stream cannot be trusted past it); an op-level error
// is a statusErr response and the stream continues.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if s.draining.Load() {
			return
		}
		payload, err := readFrame(br)
		if err != nil {
			return
		}
		t0 := time.Now()
		req, err := ParseRequest(payload)
		if err == nil && req.Op == OpSubscribe {
			// A subscription consumes the connection: it never returns to
			// the request loop.
			smet.requests.Inc()
			s.serveSubscribe(conn, br, bw, req)
			return
		}
		var resp []byte
		if err != nil {
			smet.errors.Inc()
			resp = errPayload(err.Error())
		} else {
			resp = s.respond(req)
		}
		smet.requests.Inc()
		elapsed := time.Since(t0)
		// req.Op is 0 when the parse failed — the "invalid" series.
		smet.observeOp(req.Op, elapsed.Nanoseconds())
		s.logSlowOp(req, elapsed)
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if err := writeFrame(bw, resp); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// logSlowOp emits the configured slow-op log line when a request's
// service time crossed Options.SlowOp: the op, its key shape, the
// latency, and the fingerprint of the snapshot state that served it —
// enough to correlate with /metrics series and replay the query.
func (s *Server) logSlowOp(req Request, elapsed time.Duration) {
	if s.opts.SlowOp <= 0 || elapsed < s.opts.SlowOp {
		return
	}
	logf := s.opts.SlowOpLog
	if logf == nil {
		logf = log.Printf
	}
	logf("server: slow op %s %s took %s (snapshot fp %016x, threshold %s)",
		opName(req.Op), keyShape(req), elapsed, s.b.Snap().Fingerprint(), s.opts.SlowOp)
}

// errPayload builds a statusErr response payload.
func errPayload(msg string) []byte {
	w := wire.NewRawWriter()
	w.Byte(statusErr)
	w.Str(msg)
	return w.Bytes()
}

// respond executes one request and encodes its response payload. Query
// panics (out-of-range positions, a broken partitioner) surface as
// error responses, never as a dead server.
func (s *Server) respond(req Request) (out []byte) {
	defer func() {
		if r := recover(); r != nil {
			smet.errors.Inc()
			out = errPayload(fmt.Sprint(r))
		}
	}()
	w := wire.NewRawWriter()
	w.Byte(statusOK)
	switch req.Op {
	case OpPing:
		if req.Pos != ProtocolVersion {
			return errPayload(fmt.Sprintf("server: protocol version %d not supported, want %d", req.Pos, ProtocolVersion))
		}
		w.Uvarint(ProtocolVersion)
	case OpAppend:
		seq, err := s.submitAppend([]string{req.Value}, req.Rows)
		if err != nil {
			return errPayload(err.Error())
		}
		w.Uvarint(seq)
	case OpAppendBatch:
		seq, err := s.submitAppend(req.Values, req.Rows)
		if err != nil {
			return errPayload(err.Error())
		}
		w.Uvarint(uint64(len(req.Values)))
		w.Uvarint(seq)
	case OpRow:
		row := s.b.Snap().Row(req.Pos)
		encodeRow(w, row)
	case OpScanWhere:
		if err := s.scanWhere(w, req); err != nil {
			return errPayload(err.Error())
		}
	case OpAccess:
		v, _ := s.cachedStr(OpAccess, "", req.Pos, func(sn Snap) (string, int, bool) {
			return sn.Access(req.Pos), 0, false
		})
		w.Str(v)
	case OpRank:
		n, _ := s.cachedNum(OpRank, req.Value, req.Pos, func(sn Snap) (int, bool) {
			return sn.Rank(req.Value, req.Pos), false
		})
		w.Uvarint(uint64(n))
	case OpCount:
		n, _ := s.cachedNum(OpCount, req.Value, 0, func(sn Snap) (int, bool) {
			return sn.Count(req.Value), false
		})
		w.Uvarint(uint64(n))
	case OpSelect:
		pos, ok := s.cachedNum(OpSelect, req.Value, req.Pos, func(sn Snap) (int, bool) {
			return sn.Select(req.Value, req.Pos)
		})
		writeOptPos(w, pos, ok)
	case OpRankPrefix:
		n, _ := s.cachedNum(OpRankPrefix, req.Value, req.Pos, func(sn Snap) (int, bool) {
			return sn.RankPrefix(req.Value, req.Pos), false
		})
		w.Uvarint(uint64(n))
	case OpCountPrefix:
		n, _ := s.cachedNum(OpCountPrefix, req.Value, 0, func(sn Snap) (int, bool) {
			return sn.CountPrefix(req.Value), false
		})
		w.Uvarint(uint64(n))
	case OpSelectPrefix:
		pos, ok := s.cachedNum(OpSelectPrefix, req.Value, req.Pos, func(sn Snap) (int, bool) {
			return sn.SelectPrefix(req.Value, req.Pos)
		})
		writeOptPos(w, pos, ok)
	case OpIterate:
		if err := s.iterate(w, req); err != nil {
			return errPayload(err.Error())
		}
	case OpIteratePrefix:
		s.iteratePrefix(w, req)
	case OpFlush:
		if err := s.b.Flush(); err != nil {
			return errPayload(err.Error())
		}
	case OpCompact:
		if err := s.b.Compact(); err != nil {
			return errPayload(err.Error())
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
		encodeStats(w, s.stats())
	case OpMetrics:
		// The reply is the same Prometheus text the gateway's /metrics
		// serves — one snapshot format across every surface.
		w.Str(obs.Default().TextSnapshot())
	default:
		return errPayload(fmt.Sprintf("server: unknown opcode %d", req.Op))
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

// cachedNum serves an integer-shaped point query through the result
// cache: the key is the current snapshot's fingerprint plus the query,
// so any store mutation makes every cached answer unreachable rather
// than stale.
func (s *Server) cachedNum(op byte, arg string, pos int, miss func(Snap) (int, bool)) (int, bool) {
	sn := s.b.Snap()
	if s.cache == nil {
		return miss(sn)
	}
	key := cacheKey{fp: sn.Fingerprint(), op: op, arg: arg, pos: pos}
	if v, hit := s.cache.get(key); hit {
		smet.cacheHits.Inc()
		return v.num, v.ok
	}
	smet.cacheMisses.Inc()
	n, ok := miss(sn)
	s.cache.put(key, cacheVal{num: n, ok: ok})
	return n, ok
}

// cachedStr is cachedNum for string-shaped results (Access).
func (s *Server) cachedStr(op byte, arg string, pos int, miss func(Snap) (string, int, bool)) (string, bool) {
	sn := s.b.Snap()
	if s.cache == nil {
		v, _, _ := miss(sn)
		return v, true
	}
	key := cacheKey{fp: sn.Fingerprint(), op: op, arg: arg, pos: pos}
	if v, hit := s.cache.get(key); hit {
		smet.cacheHits.Inc()
		return v.str, true
	}
	smet.cacheMisses.Inc()
	v, _, _ := miss(sn)
	s.cache.put(key, cacheVal{str: v})
	return v, true
}

// iterate serves one OpIterate page: positions [Pos, end) of the
// sequence, where end is the length the walk's first page pinned and
// every later page echoes back in Seq. No state survives the request:
// the sequence is append-only, so positions below end hold the same
// values in every later snapshot and a fresh one serves exactly what
// the first page's would have. An echoed end past the current length
// names positions this server has never held — a client that switched
// servers, or a hostile one — and is an error, never a clamp.
func (s *Server) iterate(w *wire.Writer, req Request) error {
	sn := s.b.Snap()
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
	// The walked range is bounded by the page, not by end: a sharded
	// snapshot buffers a window of every shard's subrange per Iterate.
	hi := min(end, start+max)
	page, _ := s.scanPage(sn, max, false, func(fn func(idx, pos int, v string) bool) {
		if start < hi {
			sn.Iterate(start, hi, func(pos int, v string) bool { return fn(0, pos, v) })
		}
	})
	w.Uvarint(uint64(end))
	if start+len(page) >= end {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(start))
	w.Uvarint(uint64(len(page)))
	for _, m := range page {
		w.Str(m.val)
	}
	return nil
}

// pageMatch is one element of a stateless scan page.
type pageMatch struct {
	pos int
	val string
	row store.Row
}

// iterByteBudget bounds a streamed batch by bytes as well as by count:
// large values could otherwise encode past MaxFrame and kill the
// connection instead of answering.
const iterByteBudget = 4 << 20

// scanPage collects one page of a value-carrying scan: up to max matches
// (capped by MaxIterBatch) within the byte budget, and at least one when
// any exists, so a resuming client always makes progress. With rows, each
// match's payload row is fetched and counted against the budget. done
// reports that the stream ended inside the page.
func (s *Server) scanPage(sn Snap, max int, rows bool, scan func(fn func(idx, pos int, v string) bool)) (page []pageMatch, done bool) {
	if max <= 0 || max > s.opts.MaxIterBatch {
		max = s.opts.MaxIterBatch
	}
	page = make([]pageMatch, 0, min(max, 64))
	bytes, done := 0, true
	scan(func(_, pos int, v string) bool {
		if len(page) >= max || bytes >= iterByteBudget {
			done = false // more matches exist past the page
			return false
		}
		m := pageMatch{pos: pos, val: v}
		bytes += len(v) + 18 // value plus worst-case position + length prefix
		if rows {
			m.row = sn.Row(pos)
			for _, c := range m.row {
				bytes += len(c.Blob()) + 10
			}
		}
		page = append(page, m)
		return true
	})
	return page, done
}

// writePage encodes a scan page: done flag, the echoed match offset, then
// each match's position, value and — with rows — payload row.
func writePage(w *wire.Writer, from int, page []pageMatch, done, rows bool) {
	if done {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
	w.Uvarint(uint64(from))
	w.Uvarint(uint64(len(page)))
	for _, m := range page {
		w.Uvarint(uint64(m.pos))
		w.Str(m.val)
		if rows {
			encodeRow(w, m.row)
		}
	}
}

// iteratePrefix serves one OpIteratePrefix batch: positions and values
// of elements with the requested prefix, starting at the Pos-th match.
// The sequence is append-only, so a match index permanently names the
// same element and the client resumes statelessly by echoing the next
// index — the store seeks to it by rank arithmetic rather than
// replaying the stream.
func (s *Server) iteratePrefix(w *wire.Writer, req Request) {
	sn := s.b.Snap()
	page, done := s.scanPage(sn, req.Max, false, func(fn func(idx, pos int, v string) bool) {
		sn.ScanPrefix(req.Value, req.Pos, fn)
	})
	writePage(w, req.Pos, page, done, false)
}

// scanWhere serves one OpScanWhere batch: positions, values and
// payload rows of elements matching the prefix and every numeric
// predicate, starting at the Pos-th match. Pagination is stateless like
// iteratePrefix.
func (s *Server) scanWhere(w *wire.Writer, req Request) error {
	sn := s.b.Snap()
	var err error
	page, done := s.scanPage(sn, req.Max, true, func(fn func(idx, pos int, v string) bool) {
		err = sn.ScanWhere(req.Value, req.Pos, req.Preds, fn)
	})
	if err != nil {
		return err
	}
	writePage(w, req.Pos, page, done, true)
	return nil
}

// stats builds the OpStats reply. It is the one request that asks for the
// distinct count, which the snapshot derives by walking its tries' shapes
// (store.Snapshot.AlphabetSize) — milliseconds, so a reply for an
// operator, not for a hot loop.
func (s *Server) stats() Stats {
	sn := s.b.Snap()
	st := Stats{
		Len:        sn.Len(),
		Distinct:   sn.AlphabetSize(),
		Height:     sn.Height(),
		SizeBits:   sn.SizeBits(),
		MemLen:     s.b.MemLen(),
		Shards:     s.b.Shards(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Watermark:  s.repl.watermark(),
		Following:  s.Following(),
		Followers:  s.repl.followerCount(),
	}
	ri := s.b.Router()
	st.RouterBits = ri.Bits
	st.RouterFrozenChunks = ri.FrozenChunks
	st.RouterTailChunks = ri.TailChunks
	for _, g := range s.b.Generations() {
		st.Gens = append(st.Gens, GenStat{
			ID: g.ID, Len: g.Len, SizeBits: g.SizeBits,
			MinValue: g.MinValue, MaxValue: g.MaxValue,
		})
	}
	st.Schema = s.b.Schema()
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
