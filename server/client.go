package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/store"
)

// Client speaks the binary protocol to a wtserve server over one
// connection. All methods are safe for concurrent use (requests are
// serialized on the connection). Query methods mirror the store's
// snapshot surface; each call is served from a snapshot the server pins
// for that request, and Scan pins one sequence length across its whole
// walk.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// Reused from round trip to round trip, under mu: the request's
	// encoding and the response's frame (decode callbacks copy what they
	// keep).
	enc   wire.Writer
	frame []byte

	// lastAck is the highest append ack sequence number this client has
	// seen — its read-your-writes session token. See LastAcked.
	lastAck atomic.Uint64
}

// Dial connects to a wtserve binary-protocol address and verifies the
// protocol version with a Ping.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := c.Ping(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ServerError is an error the server answered with (as opposed to a
// transport failure): the connection is still usable.
type ServerError struct{ Msg string }

// Error returns the server's message.
func (e *ServerError) Error() string { return e.Msg }

// roundTrip sends one request and decodes the response body into
// decode (which may be nil for empty bodies).
func (c *Client) roundTrip(req Request, decode func(r *wire.Reader) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enc.Reset()
	encodeRequest(&c.enc, &req)
	if err := writeFrame(c.bw, c.enc.Bytes()); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	// Like the server's request loop, keep at most connIdleBuf of either
	// buffer past the round trip that grew it.
	if cap(c.enc.Bytes()) > connIdleBuf {
		c.enc = wire.Writer{}
	}
	payload, err := readFrame(c.br, c.frame)
	if err != nil {
		return err
	}
	if c.frame = payload; cap(payload) > connIdleBuf {
		c.frame = nil
	}
	r := wire.NewRawReader(payload)
	switch status := r.Byte(); status {
	case statusOK:
	case statusErr:
		msg := r.Str()
		if err := r.Err(); err != nil {
			return err
		}
		return &ServerError{Msg: msg}
	default:
		return fmt.Errorf("server: bad response status %d", status)
	}
	if decode != nil {
		if err := decode(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// Ping verifies connectivity and protocol compatibility.
func (c *Client) Ping() error {
	return c.roundTrip(Request{Op: OpPing, Pos: ProtocolVersion}, func(r *wire.Reader) error {
		if v := r.Uvarint(); r.Err() == nil && v != ProtocolVersion {
			return fmt.Errorf("server: speaks protocol %d, want %d", v, ProtocolVersion)
		}
		return nil
	})
}

// Append adds v at the end of the sequence. The call returns once the
// server has committed it (grouped with concurrent appends).
func (c *Client) Append(v string) error {
	_, err := c.AppendSeq(v)
	return err
}

// AppendSeq is Append returning the global sequence number the write
// is covered by: once any server's watermark reaches it (WaitFor),
// reads there see this write. The client also remembers it as its
// session token (LastAcked).
func (c *Client) AppendSeq(v string) (uint64, error) {
	return c.appendAck(Request{Op: OpAppend, Value: v})
}

// AppendBatch adds vs at the end of the sequence as one atomic,
// order-preserving batch — the efficient ingest path: one round trip
// and (server-side) one group commit for the whole batch.
func (c *Client) AppendBatch(vs []string) error {
	_, err := c.AppendBatchSeq(vs)
	return err
}

// AppendBatchSeq is AppendBatch returning the covering sequence
// number; see AppendSeq.
func (c *Client) AppendBatchSeq(vs []string) (uint64, error) {
	return c.AppendBatchRowsSeq(vs, nil)
}

// AppendBatchRows is AppendBatch with payload rows attached — rows is
// nil or exactly one (possibly nil, all-NULL) row per value. The server
// validates the rows against the store's pinned schema before
// committing.
func (c *Client) AppendBatchRows(vs []string, rows []store.Row) error {
	_, err := c.AppendBatchRowsSeq(vs, rows)
	return err
}

// AppendBatchRowsSeq is AppendBatchRows returning the covering
// sequence number; see AppendSeq.
func (c *Client) AppendBatchRowsSeq(vs []string, rows []store.Row) (uint64, error) {
	if len(vs) == 0 {
		return c.lastAck.Load(), nil
	}
	if rows != nil && len(rows) != len(vs) {
		return 0, fmt.Errorf("server: %d rows for %d values", len(rows), len(vs))
	}
	return c.appendAck(Request{Op: OpAppendBatch, Values: vs, Rows: rows})
}

// appendAck sends an append op and returns its ack, the covering sequence
// number, advancing the session token to it if it is newer.
func (c *Client) appendAck(req Request) (uint64, error) {
	var seq uint64
	err := c.roundTrip(req, func(r *wire.Reader) error {
		if req.Op == OpAppendBatch {
			r.Uvarint() // accepted count, fixed by the request itself
		}
		seq = r.Uvarint()
		return nil
	})
	for err == nil { // unless a newer ack got there first
		cur := c.lastAck.Load()
		if seq <= cur || c.lastAck.CompareAndSwap(cur, seq) {
			break
		}
	}
	return seq, err
}

// LastAcked returns the client's read-your-writes session token: the
// highest sequence number its acknowledged appends are covered by.
// Hand it to WaitFor on a follower connection (or to the HTTP
// gateway's X-WT-Consistency-Token header) before reading to guarantee
// the session's own writes are visible there.
func (c *Client) LastAcked() uint64 { return c.lastAck.Load() }

// WaitFor blocks until the server's watermark covers seq or the
// timeout lapses, returning the watermark and whether seq is covered.
// The server bounds one wait at 30s; callers needing more re-issue.
func (c *Client) WaitFor(seq uint64, timeout time.Duration) (uint64, bool, error) {
	var wm uint64
	var ok bool
	ms := max(int(timeout/time.Millisecond), 0)
	err := c.roundTrip(Request{Op: OpReplWait, Seq: seq, Max: ms}, func(r *wire.Reader) error {
		ok = r.Byte() == 1
		wm = r.Uvarint()
		return nil
	})
	return wm, ok, err
}

// Promote asks a follower to stop following and accept writes.
// Reports whether the server was in fact following (false: it already
// was a primary).
func (c *Client) Promote() (bool, error) {
	var was bool
	err := c.roundTrip(Request{Op: OpPromote}, func(r *wire.Reader) error {
		was = r.Byte() == 1
		return nil
	})
	return was, err
}

// Access returns the string at position pos.
func (c *Client) Access(pos int) (string, error) {
	var out string
	err := c.roundTrip(Request{Op: OpAccess, Pos: pos}, func(r *wire.Reader) error {
		out = r.Str()
		return nil
	})
	return out, err
}

// Row returns the columnar payload row at position pos (nil when the
// store pins no schema or the position's payload is all-NULL).
func (c *Client) Row(pos int) (store.Row, error) {
	var row store.Row
	err := c.roundTrip(Request{Op: OpRow, Pos: pos}, func(r *wire.Reader) error {
		row = parseRow(r)
		return nil
	})
	return row, err
}

// num answers a request whose reply is one count.
func (c *Client) num(req Request) (int, error) {
	var out int
	err := c.roundTrip(req, func(r *wire.Reader) error {
		out = int(r.Uvarint())
		return nil
	})
	return out, err
}

// optPos asks for a (pos, ok) answer. A negative index, which a request
// cannot carry, has no match, as Snapshot.Select answers it.
func (c *Client) optPos(op byte, v string, idx int) (int, bool, error) {
	if idx < 0 {
		return 0, false, nil
	}
	var pos int
	var ok bool
	err := c.roundTrip(Request{Op: op, Value: v, Pos: idx}, func(r *wire.Reader) error {
		pos, ok = parseOptPos(r)
		return nil
	})
	return pos, ok, err
}

// parseOptPos reads a (pos, ok) reply; pos is 0 when ok is false.
func parseOptPos(r *wire.Reader) (pos int, ok bool) {
	if r.Byte() == 1 {
		return int(r.Uvarint()), true
	}
	return 0, false
}

// Rank counts occurrences of v in positions [0, pos).
func (c *Client) Rank(v string, pos int) (int, error) {
	return c.num(Request{Op: OpRank, Value: v, Pos: pos})
}

// Count returns the total number of occurrences of v.
func (c *Client) Count(v string) (int, error) { return c.num(Request{Op: OpCount, Value: v}) }

// Select returns the position of the idx-th (0-based) occurrence of v,
// with ok=false when there is none (a negative idx has none).
func (c *Client) Select(v string, idx int) (int, bool, error) { return c.optPos(OpSelect, v, idx) }

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (c *Client) RankPrefix(p string, pos int) (int, error) {
	return c.num(Request{Op: OpRankPrefix, Value: p, Pos: pos})
}

// CountPrefix returns the total number of elements with byte prefix p.
func (c *Client) CountPrefix(p string) (int, error) {
	return c.num(Request{Op: OpCountPrefix, Value: p})
}

// SelectPrefix returns the position of the idx-th element with byte
// prefix p.
func (c *Client) SelectPrefix(p string, idx int) (int, bool, error) {
	return c.optPos(OpSelectPrefix, p, idx)
}

// CountWhere counts the elements with byte prefix p whose payload rows
// satisfy every predicate, in one round trip.
func (c *Client) CountWhere(p string, preds ...store.Pred) (int, error) {
	return c.num(Request{Op: OpCountWhere, Value: p, Preds: preds})
}

// Flush seals the server store's memtable into a frozen generation.
func (c *Client) Flush() error { return c.roundTrip(Request{Op: OpFlush}, nil) }

// Compact merges the server store's generations.
func (c *Client) Compact() error { return c.roundTrip(Request{Op: OpCompact}, nil) }

// Stats returns the store's current shape.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.roundTrip(Request{Op: OpStats}, func(r *wire.Reader) error {
		st = parseStats(r)
		return nil
	})
	return st, err
}

// MetricsText returns the server's metrics as Prometheus text
// exposition — byte-identical to what the HTTP gateway's /metrics
// serves, but over the binary protocol, so a deployment without the
// gateway is still observable.
func (c *Client) MetricsText() (string, error) {
	var out string
	err := c.roundTrip(Request{Op: OpMetrics}, func(r *wire.Reader) error {
		out = r.Str()
		return nil
	})
	return out, err
}

// pages is the one paging loop behind Scan, ScanPrefix and ScanWhere: it
// asks for at most batch items a round trip (0 selects 1024), from item
// req.Pos on, until the server reports the last page, n items have been
// visited (n < 0 = to the end) or the consumer stops. decode reads one
// reply — the page's done flag, the index of its first item and its items,
// which it keeps, returning how many — and runs under the round trip, so it
// must not call the consumer; emit hands over item i of that page, whose
// index in the whole walk is idx, once the round trip is done, and returns
// false to stop.
func (c *Client) pages(req *Request, n, batch int, decode func(r *wire.Reader) (done bool, start, k int), emit func(idx, i int) bool) error {
	if n == 0 {
		return nil
	}
	if batch <= 0 {
		batch = 1024
	}
	for {
		req.Max = batch
		if n >= 0 && n < batch {
			req.Max = n
		}
		var done bool
		var start, k int
		err := c.roundTrip(*req, func(r *wire.Reader) error {
			done, start, k = decode(r)
			return nil
		})
		if err != nil {
			return err
		}
		for i := 0; i < k; i++ {
			if !emit(start+i, i) {
				return nil
			}
		}
		if done {
			return nil
		}
		if n > 0 {
			if n -= k; n == 0 {
				return nil
			}
		}
		if k == 0 {
			return nil // defensive: a non-done empty batch must not spin
		}
		req.Pos = start + k
	}
}

// pageHeader reads what every scan page starts with.
func pageHeader(r *wire.Reader) (done bool, start, k int) {
	return r.Byte() == 1, int(r.Uvarint()), r.Len()
}

// parseIteratePage reads an OpIterate page, appending its values to vals:
// the walk's end, whether the page is the last, and its first position.
func parseIteratePage(r *wire.Reader, vals []string) (end uint64, done bool, start int, _ []string) {
	end = r.Uvarint()
	done, start, k := pageHeader(r)
	for i := 0; i < k && r.Err() == nil; i++ {
		vals = append(vals, r.Str())
	}
	return end, done, start, vals
}

// Scan streams the elements of positions [start, start+n) in order,
// calling fn for each; n < 0 streams to the end. The walk covers the
// sequence as it stood at the first page: that page pins the length,
// every later one echoes it, and because positions never change under
// an append-only sequence, concurrent appends, flushes and compactions
// — even a server restart — never shift the view. The server holds
// nothing between pages, so returning false from fn just stops. batch
// sizes the per-round-trip value count; 0 uses the server's default.
func (c *Client) Scan(start, n, batch int, fn func(pos int, v string) bool) error {
	req := Request{Op: OpIterate, Pos: start}
	var vals []string
	return c.pages(&req, n, batch, func(r *wire.Reader) (done bool, pos int, _ int) {
		req.Seq, done, pos, vals = parseIteratePage(r, vals[:0])
		return done, pos, len(vals)
	}, func(pos, i int) bool { return fn(pos, vals[i]) })
}

// scanMatch is one item of a ScanPrefix or ScanWhere page.
type scanMatch struct {
	pos int
	val string
	row store.Row // ScanWhere only
}

// ScanPrefix streams the elements with byte prefix p in ascending
// position order, starting at the from-th (0-based) match and visiting
// at most n matches; n < 0 streams to the end. fn receives the global
// match index, the element's position and its value, and returns false
// to stop. Pagination is stateless — the sequence is append-only, so a
// match index permanently names the same element and each round trip
// just echoes the next index; the server seeks to it through the
// router's frozen prefix sums. batch sizes
// the per-round-trip match count; 0 uses the server's default.
func (c *Client) ScanPrefix(p string, from, n, batch int, fn func(idx, pos int, v string) bool) error {
	return c.scanMatches(Request{Op: OpIteratePrefix, Value: p, Pos: from}, n, batch, func(idx int, m scanMatch) bool {
		return fn(idx, m.pos, m.val)
	})
}

// ScanWhere streams the elements matching byte prefix p AND every
// numeric predicate, in ascending position order, starting at the
// from-th (0-based) match and visiting at most n matches; n < 0
// streams to the end. fn receives the global match index, the
// element's position, its value and its payload row, and returns false
// to stop. Pagination is stateless like ScanPrefix. batch sizes the
// per-round-trip match count; 0 uses the server's default.
func (c *Client) ScanWhere(p string, preds []store.Pred, from, n, batch int, fn func(idx, pos int, v string, row store.Row) bool) error {
	return c.scanMatches(Request{Op: OpScanWhere, Value: p, Pos: from, Preds: preds}, n, batch, func(idx int, m scanMatch) bool {
		return fn(idx, m.pos, m.val, m.row)
	})
}

// scanMatches pages through a match scan from match req.Pos on; an
// OpScanWhere page carries a row behind every value.
func (c *Client) scanMatches(req Request, n, batch int, fn func(idx int, m scanMatch) bool) error {
	if req.Pos < 0 {
		return nil
	}
	var matches []scanMatch
	return c.pages(&req, n, batch, func(r *wire.Reader) (done bool, start int, _ int) {
		done, start, matches = parseMatchPage(r, req.Op == OpScanWhere, matches[:0])
		return done, start, len(matches)
	}, func(idx, i int) bool { return fn(idx, matches[i]) })
}

// parseMatchPage reads an OpIteratePrefix page, or with rows an
// OpScanWhere one, appending its matches to ms: whether the page is the
// last, and the match index of its first match.
func parseMatchPage(r *wire.Reader, rows bool, ms []scanMatch) (done bool, start int, _ []scanMatch) {
	done, start, k := pageHeader(r)
	for i := 0; i < k && r.Err() == nil; i++ {
		m := scanMatch{pos: int(r.Uvarint()), val: r.Str()}
		if rows {
			m.row = parseRow(r)
		}
		ms = append(ms, m)
	}
	return done, start, ms
}
