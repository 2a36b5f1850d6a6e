package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// FollowerWriteError is the refusal a replication follower answers
// writes with: followers are read-only, and the error names the
// primary so clients (and the HTTP gateway, via a 421 redirect) can
// re-aim.
type FollowerWriteError struct{ Primary string }

// Error renders the refusal.
func (e *FollowerWriteError) Error() string {
	return fmt.Sprintf("server: read-only follower (writes go to the primary at %s)", e.Primary)
}

// followSession is one Follow invocation's lifetime: its stop channel,
// the currently dialed connection (closed to interrupt a blocking
// read), and the last primary head heard (for lag).
type followSession struct {
	addr string
	id   string
	stop chan struct{}
	done chan struct{}

	mu   sync.Mutex
	conn net.Conn

	primaryHead atomic.Uint64
}

// setConn records the live connection unless the session has stopped
// (in which case the caller must close it).
func (fs *followSession) setConn(c net.Conn) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	select {
	case <-fs.stop:
		return false
	default:
	}
	fs.conn = c
	return true
}

func (fs *followSession) closeConn() {
	fs.mu.Lock()
	if fs.conn != nil {
		fs.conn.Close()
	}
	fs.mu.Unlock()
}

func (fs *followSession) stopped() bool {
	select {
	case <-fs.stop:
		return true
	default:
		return false
	}
}

// Follow turns this server into a replication follower of the primary
// at addr: it subscribes from its own watermark, replays the record
// stream into its own backend, and keeps reconnecting with backoff
// until Promote or Shutdown. While
// following, the full read surface stays up but writes are refused
// with a FollowerWriteError. id names the follower in the primary's
// watermark book; empty picks a host-and-pid default.
func (s *Server) Follow(addr, id string) error {
	if addr == "" {
		return errors.New("server: Follow needs a primary address")
	}
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "follower"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fs := &followSession{addr: addr, id: id, stop: make(chan struct{}), done: make(chan struct{})}
	if !s.follow.CompareAndSwap(nil, fs) {
		return errors.New("server: already following a primary")
	}
	go s.followLoop(fs)
	return nil
}

// Following returns the primary address this server follows, or ""
// when it is itself a primary.
func (s *Server) Following() string {
	if fs := s.follow.Load(); fs != nil {
		return fs.addr
	}
	return ""
}

// Promote ends follower mode: the stream is torn down, no further
// records are applied, and writes are accepted from the next request
// on. Already-subscribed downstream followers are unaffected — the hub
// keeps publishing local commits to them. Reports whether the server
// was following (false means it already was a primary; the call is a
// safe no-op then).
func (s *Server) Promote() bool {
	fs := s.follow.Swap(nil)
	if fs == nil {
		return false
	}
	close(fs.stop)
	fs.closeConn()
	<-fs.done
	return true
}

// followLoop runs the subscribe-replay-reconnect cycle until the
// session stops.
func (s *Server) followLoop(fs *followSession) {
	defer close(fs.done)
	backoff := 100 * time.Millisecond
	for {
		if fs.stopped() {
			return
		}
		err := s.followOnce(fs)
		if fs.stopped() {
			return
		}
		smet.replReconnects.Inc()
		if err != nil {
			s.logf("server: replication stream from %s: %v (reconnecting in %s)", fs.addr, err, backoff)
		}
		select {
		case <-fs.stop:
			return
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// logf routes follower-loop messages through the slow-op logger so
// tests can capture them; nil falls back to the standard logger.
func (s *Server) logf(format string, args ...any) {
	logf := s.opts.SlowOpLog
	if logf == nil {
		logf = log.Printf
	}
	logf(format, args...)
}

// followOnce runs one connection's worth of following: dial,
// handshake, then the record loop. A nil return means the session
// stopped; any error means reconnect.
func (s *Server) followOnce(fs *followSession) error {
	conn, err := net.DialTimeout("tcp", fs.addr, 10*time.Second)
	if err != nil {
		return err
	}
	if !fs.setConn(conn) {
		conn.Close()
		return nil
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	idle := replIdleTimeout(s.opts.ReplHeartbeat)

	roundTrip := func(payload []byte) (*wire.Reader, error) {
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if err := writeFrame(bw, payload); err != nil {
			return nil, err
		}
		if err := bw.Flush(); err != nil {
			return nil, err
		}
		conn.SetReadDeadline(time.Now().Add(time.Minute))
		resp, err := readFrame(br, nil)
		if err != nil {
			return nil, err
		}
		r := wire.NewRawReader(resp)
		switch status := r.Byte(); status {
		case statusOK:
			return r, nil
		case statusErr:
			msg := r.Str()
			if err := r.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("server: primary refused: %s", msg)
		default:
			return nil, fmt.Errorf("server: bad response status %d", status)
		}
	}

	r, err := roundTrip(EncodeRequest(Request{Op: OpPing, Pos: ProtocolVersion}))
	if err != nil {
		return err
	}
	if v := r.Uvarint(); r.Err() == nil && v != ProtocolVersion {
		return fmt.Errorf("server: primary speaks protocol %d, want %d", v, ProtocolVersion)
	}

	r, err = roundTrip(EncodeSubscribe(SubscribeReq{FollowerID: fs.id, FromSeq: s.repl.watermark()}))
	if err != nil {
		return err
	}
	primaryLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	fs.primaryHead.Store(primaryLen)

	sendAck := func() error {
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		if err := writeFrame(bw, EncodeWALFrame(WALFrame{Kind: FrameAck, Seq: s.repl.watermark()})); err != nil {
			return err
		}
		return bw.Flush()
	}
	next := func() (WALFrame, error) {
		conn.SetReadDeadline(time.Now().Add(idle))
		payload, err := readFrame(br, nil)
		if err != nil {
			return WALFrame{}, err
		}
		return ParseWALFrame(payload)
	}

	for {
		f, err := next()
		if err != nil {
			if fs.stopped() {
				return nil
			}
			return err
		}
		switch f.Kind {
		case FrameRecords:
			if fs.stopped() {
				return nil // promoted mid-frame: do not apply
			}
			if err := s.applyRecords(f); err != nil {
				return err
			}
			if err := sendAck(); err != nil {
				return err
			}
		case FrameHeartbeat:
			fs.primaryHead.Store(f.Seq)
			if err := sendAck(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("server: unexpected replication frame kind %d", f.Kind)
		}
	}
}

// applyRecords replays one records frame into the local backend after
// validating it lands exactly on the watermark.
func (s *Server) applyRecords(f WALFrame) error {
	if err := checkStreamSeq(s.repl.watermark(), f.Seq, len(f.Values)); err != nil {
		return err
	}
	if _, err := s.commitPublish(f.Values, f.Rows); err != nil {
		return err
	}
	smet.replAppliedRecords.Add(int64(len(f.Values)))
	return nil
}

// checkStreamSeq validates a records frame against the follower's
// watermark. The stream contract is exact contiguity: a frame starting
// above the watermark means records were lost (a gap — the paramount
// replication failure), one starting below means the primary resent
// history the follower already applied; either way the stream cannot
// be trusted and the connection must be dropped, never papered over.
func checkStreamSeq(watermark, frameStart uint64, n int) error {
	if n == 0 {
		return errors.New("server: empty records frame")
	}
	if frameStart > watermark {
		return fmt.Errorf("server: replication gap: frame starts at %d, watermark is %d", frameStart, watermark)
	}
	if frameStart < watermark {
		return fmt.Errorf("server: replication regression: frame starts at %d, watermark is %d", frameStart, watermark)
	}
	return nil
}
