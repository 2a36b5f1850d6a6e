package server

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/store"
)

// The replication hub (DESIGN.md §12). Every committed append flows
// through commitPublish, which serializes the backend write with the
// advancement of the hub's head — the global sequence number one past
// the last committed record. Because the store is append-only, the
// head IS the log position: a subscriber needs no WAL bytes to catch
// up, it reads [from, head) out of any snapshot.
//
// The seam between catch-up and live streaming is closed by ordering:
// a subscriber registers its channel BEFORE taking the catch-up
// snapshot, so every batch committed after registration is either
// already inside the snapshot (and trimmed from the live stream) or
// arrives on the channel — contiguity is arithmetic, not luck.

const (
	// replSendBuffer is the per-subscriber batch queue. A follower whose
	// connection cannot drain this many pending commits is evicted (the
	// write path never blocks on a slow follower) and reconnects into a
	// fresh catch-up.
	replSendBuffer = 256
	// replCatchupFrameBytes caps the payload bytes of one catch-up record
	// frame, comfortably under MaxFrame; a single value larger than it
	// still ships alone.
	replCatchupFrameBytes = 4 << 20
	// replCatchupBatch caps values per catch-up record frame.
	replCatchupBatch = 2048
	// replWaitCap bounds one OpReplWait block; clients re-issue.
	replWaitCap = 30 * time.Second
)

// replBatch is one committed batch in flight to a subscriber: its
// first global sequence number, its values, and — when the store pins
// a column schema — the payload rows (nil, or one per value).
type replBatch struct {
	start uint64
	vals  []string
	rows  []store.Row
}

// replSub is one subscriber's queue. Closed (by the publisher) on
// eviction; removed from the hub by its connection handler otherwise.
type replSub struct {
	ch chan replBatch
}

// followerState is the primary's book on one follower id.
type followerState struct {
	acked   uint64 // highest watermark the follower reported durable
	conns   int    // live subscriptions under this id (reconnect overlap)
	lastAck time.Time
}

// replHub owns the server's replication state: the committed head,
// the subscriber set, and per-follower watermarks.
type replHub struct {
	// appendMu serializes backend appends with head advancement so
	// sequence numbers are assigned in commit order. Every write path —
	// group committer, direct commits, follower apply — goes through it
	// via commitPublish.
	appendMu sync.Mutex

	mu        sync.Mutex
	head      uint64
	advCh     chan struct{} // closed+replaced on every head advance
	subs      map[*replSub]struct{}
	followers map[string]*followerState
}

func newReplHub(head uint64) *replHub {
	return &replHub{
		head:      head,
		advCh:     make(chan struct{}),
		subs:      make(map[*replSub]struct{}),
		followers: make(map[string]*followerState),
	}
}

// watermark returns the committed head: the global sequence number
// every snapshot taken now covers at least up to.
func (h *replHub) watermark() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.head
}

// followerCount returns the number of distinct connected follower ids.
func (h *replHub) followerCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.followers)
}

// followerAcked snapshots each connected follower's acked watermark.
func (h *replHub) followerAcked() map[string]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]uint64, len(h.followers))
	for id, f := range h.followers {
		out[id] = f.acked
	}
	return out
}

// commitPublish is the single write entry point: append to the
// backend, advance the head, wake watermark waiters and fan the batch
// out to subscribers. Returns the new head (the sequence number one
// past this batch — the value a read-your-writes client waits on).
func (s *Server) commitPublish(vals []string, rows []store.Row) (uint64, error) {
	h := s.repl
	h.appendMu.Lock()
	defer h.appendMu.Unlock()
	if err := s.b.AppendBatchRows(vals, rows); err != nil {
		return 0, err
	}
	h.mu.Lock()
	start := h.head
	end := start + uint64(len(vals))
	h.head = end
	close(h.advCh)
	h.advCh = make(chan struct{})
	for sub := range h.subs {
		select {
		case sub.ch <- replBatch{start: start, vals: vals, rows: rows}:
		default:
			// The follower's connection fell replSendBuffer commits
			// behind. Evict it rather than block the write path; it
			// reconnects into a snapshot-backed catch-up.
			delete(h.subs, sub)
			close(sub.ch)
			smet.replEvictedSubs.Inc()
		}
	}
	h.mu.Unlock()
	return end, nil
}

// replLagRecords renders this server's replication lag: on a follower,
// how far its watermark trails the primary head it last heard; on a
// primary with followers, how far the slowest acked watermark trails
// its own head.
func (s *Server) replLagRecords() int64 {
	if fs := s.follow.Load(); fs != nil {
		if ph, wm := fs.primaryHead.Load(), s.repl.watermark(); ph > wm {
			return int64(ph - wm)
		}
		return 0
	}
	h := s.repl
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.followers) == 0 {
		return 0
	}
	low := uint64(math.MaxUint64)
	for _, f := range h.followers {
		if f.acked < low {
			low = f.acked
		}
	}
	if h.head > low {
		return int64(h.head - low)
	}
	return 0
}

// waitWatermark blocks until the committed head covers seq, the
// timeout lapses, or the server drains. Reports whether seq is
// covered — the OpReplWait read-your-writes primitive.
func (s *Server) waitWatermark(seq uint64, timeout time.Duration) bool {
	h := s.repl
	if timeout < 0 {
		timeout = 0
	}
	if timeout > replWaitCap {
		timeout = replWaitCap
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		h.mu.Lock()
		head, ch := h.head, h.advCh
		h.mu.Unlock()
		if head >= seq {
			return true
		}
		select {
		case <-ch:
		case <-deadline.C:
			return false
		case <-s.drainCh:
			return false
		}
	}
}

// serveSubscribe turns an accepted connection into a replication
// stream: handshake response, snapshot-backed catch-up, then live
// batches and heartbeats, with the follower's acks read off the same
// connection. The connection never returns to the request loop;
// serveConn closes it when this returns.
func (s *Server) serveSubscribe(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, req Request) {
	sub := SubscribeReq{FollowerID: req.Value, FromSeq: req.Seq}
	refuse := func(msg string) {
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if writeFrame(bw, errPayload(msg)) == nil {
			bw.Flush()
		}
	}
	if sub.FollowerID == "" {
		refuse("server: subscribe needs a follower id")
		return
	}

	// Register before snapshotting: from here on every commit lands on
	// rs.ch, so the snapshot below overlaps or abuts the live stream.
	h := s.repl
	rs := &replSub{ch: make(chan replBatch, replSendBuffer)}
	h.mu.Lock()
	if s.draining.Load() {
		h.mu.Unlock()
		refuse(errDraining.Error())
		return
	}
	if sub.FromSeq > h.head {
		head := h.head
		h.mu.Unlock()
		refuse(fmt.Sprintf("server: subscribe from %d is past head %d (divergent follower?)", sub.FromSeq, head))
		return
	}
	h.subs[rs] = struct{}{}
	fo := h.followers[sub.FollowerID]
	if fo == nil {
		fo = &followerState{}
		h.followers[sub.FollowerID] = fo
	}
	fo.conns++
	if sub.FromSeq > fo.acked {
		fo.acked = sub.FromSeq
	}
	fo.lastAck = time.Now()
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		if _, live := h.subs[rs]; live {
			delete(h.subs, rs)
			close(rs.ch)
		}
		fo.conns--
		if fo.conns == 0 {
			delete(h.followers, sub.FollowerID)
		}
		h.mu.Unlock()
	}()

	sn := s.b.Snap()
	snapLen := uint64(sn.Len()) // >= registration head >= FromSeq

	w := wire.NewRawWriter()
	w.Byte(statusOK)
	w.Uvarint(snapLen)
	conn.SetWriteDeadline(time.Now().Add(time.Minute))
	if writeFrame(bw, w.Bytes()) != nil || bw.Flush() != nil {
		return
	}

	send := func(f WALFrame) bool {
		payload := EncodeWALFrame(f)
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if writeFrame(bw, payload) != nil || bw.Flush() != nil {
			return false
		}
		if f.Kind == FrameRecords {
			smet.replShippedRecords.Add(int64(len(f.Values)))
			smet.replShippedBytes.Add(int64(len(payload)))
		}
		return true
	}

	// Catch-up straight out of the snapshot: the store is the log.
	if sub.FromSeq < snapLen && !s.streamCatchup(sn, sub.FromSeq, snapLen, send) {
		return
	}
	expected := snapLen

	// The ack reader owns the connection's read half: watermark
	// bookkeeping rides the returning acks.
	ackDone := make(chan struct{})
	go s.replAckLoop(conn, br, fo, ackDone)

	hb := time.NewTicker(s.opts.ReplHeartbeat)
	defer hb.Stop()
	for {
		select {
		case b, ok := <-rs.ch:
			if !ok {
				return // evicted: the queue overflowed
			}
			end := b.start + uint64(len(b.vals))
			if end <= expected {
				continue // fully inside the catch-up snapshot
			}
			if b.start < expected {
				if b.rows != nil {
					b.rows = b.rows[expected-b.start:]
				}
				b.vals = b.vals[expected-b.start:]
				b.start = expected
			}
			if b.start != expected {
				return // hub contiguity broken; never ship a gap
			}
			if !send(WALFrame{Kind: FrameRecords, Seq: b.start, Values: b.vals, Rows: b.rows}) {
				return
			}
			expected = end
		case <-hb.C:
			if !send(WALFrame{Kind: FrameHeartbeat, Seq: h.watermark()}) {
				return
			}
		case <-ackDone:
			return
		case <-s.drainCh:
			return
		}
	}
}

// streamCatchup ships [from, to) of a snapshot as record frames,
// batched by count and bytes to stay under the frame cap. On a store
// with a pinned schema every frame also carries the payload rows, so a
// follower rebuilds the columns byte-identically.
func (s *Server) streamCatchup(sn Snap, from, to uint64, send func(WALFrame) bool) bool {
	withRows := len(sn.Schema()) > 0
	runStart := from
	batch := make([]string, 0, replCatchupBatch)
	var rows []store.Row
	bytes := 0
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if !send(WALFrame{Kind: FrameRecords, Seq: runStart, Values: batch, Rows: rows}) {
			return false
		}
		runStart += uint64(len(batch))
		batch = batch[:0]
		if rows != nil {
			rows = rows[:0]
		}
		bytes = 0
		return true
	}
	ok := true
	sn.Iterate(int(from), int(to), func(pos int, v string) bool {
		// size bounds the element's encoded bytes from above, so a frame
		// exceeds the cap only when one element alone does.
		size := len(v) + 10
		var row store.Row
		if withRows {
			row = sn.Row(pos)
			size += 10
			for _, c := range row {
				size += len(c.Blob()) + 11
			}
		}
		if len(batch) > 0 && (len(batch) >= replCatchupBatch || bytes+size > replCatchupFrameBytes) {
			if ok = flush(); !ok {
				return false
			}
		}
		batch = append(batch, v)
		if withRows {
			rows = append(rows, row)
		}
		bytes += size
		return true
	})
	return ok && flush()
}

// replAckLoop drains a subscriber connection's ack frames, advancing
// the follower's watermark. Any read error or non-ack frame ends the
// subscription.
func (s *Server) replAckLoop(conn net.Conn, br *bufio.Reader, fo *followerState, done chan struct{}) {
	defer close(done)
	h := s.repl
	for {
		conn.SetReadDeadline(time.Now().Add(replIdleTimeout(s.opts.ReplHeartbeat)))
		payload, err := readFrame(br, nil)
		if err != nil {
			return
		}
		f, err := ParseWALFrame(payload)
		if err != nil || f.Kind != FrameAck {
			return
		}
		h.mu.Lock()
		if f.Seq > fo.acked {
			fo.acked = f.Seq
		}
		fo.lastAck = time.Now()
		h.mu.Unlock()
		smet.replAcks.Inc()
	}
}

// replIdleTimeout is how long either replication end waits for traffic
// before declaring the peer dead; heartbeats (and the acks answering
// them) keep a healthy but idle stream far inside it.
func replIdleTimeout(heartbeat time.Duration) time.Duration {
	if t := 5 * heartbeat; t > 10*time.Second {
		return t
	}
	return 10 * time.Second
}
