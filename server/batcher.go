package server

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/store"
)

// The group-commit write path: connection handlers never touch the
// store's append lock themselves. They enqueue their values on a
// channel and wait; a single committer goroutine drains whatever has
// accumulated — across any number of connections — into one
// Backend.AppendBatchRows call, which is one lock acquisition, one WAL
// write and at most one fsync no matter how many clients are inside
// the batch. Under load the batch grows and the per-append cost of
// the log falls toward zero; when idle a lone append commits
// immediately (the committer never waits for company).
//
// Backpressure is the channel itself: it holds at most
// Options.MaxBatch pending enqueues, so writers stall once the store
// falls behind instead of growing an unbounded queue.

// appendReq is one handler's pending append: its values, optional
// payload rows (nil, or one per value), and the channel its commit
// result comes back on.
type appendReq struct {
	vals []string
	rows []store.Row
	resc chan commitResult
}

// commitResult is what a waiter gets back: the global sequence number
// its batch is covered by (the new head — its ack token for
// read-your-writes sessions) or the commit error.
type commitResult struct {
	seq uint64
	err error
}

// committer is the group-commit loop. It exits when the append channel
// closes (drain: handlers have all finished, nothing can enqueue).
func (s *Server) committer() {
	defer s.wgCommit.Done()
	for first := range s.appendCh {
		vals := first.vals
		rows := first.rows
		waiters := append(make([]chan commitResult, 0, 8), first.resc)
		// Coalesce everything already queued, up to the batch cap. Rows
		// stay position-aligned with vals: the rows slice is materialized
		// lazily the first time any request in the batch carries one, with
		// nil (all-NULL) entries padding the row-less requests.
	drain:
		for len(vals) < s.opts.MaxBatch {
			select {
			case req, ok := <-s.appendCh:
				if !ok {
					break drain
				}
				if req.rows != nil && rows == nil {
					rows = make([]store.Row, len(vals))
				}
				if rows != nil {
					if req.rows != nil {
						rows = append(rows, req.rows...)
					} else {
						rows = append(rows, make([]store.Row, len(req.vals))...)
					}
				}
				vals = append(vals, req.vals...)
				waiters = append(waiters, req.resc)
			default:
				break drain
			}
		}
		sp := obs.DefaultTracer.Start("group_commit")
		t0 := time.Now()
		seq, err := s.commitPublish(vals, rows)
		smet.commitSeconds.ObserveSince(t0)
		smet.groupCommits.Inc()
		smet.commitValues.Add(int64(len(vals)))
		smet.batchSize.Observe(int64(len(vals)))
		if len(waiters) > 1 {
			smet.coalesced.Add(int64(len(waiters) - 1))
		}
		sp.End(fmt.Sprintf("values=%d waiters=%d", len(vals), len(waiters)))
		for _, c := range waiters {
			c <- commitResult{seq: seq, err: err}
		}
	}
}

// submitAppend routes values (and optional payload rows — nil, or one
// per value) through the group-commit path and waits for the commit.
// Returns the global sequence number the write is covered by —
// the client's read-your-writes token. Writes are refused on a
// replication follower; the primary owns sequence assignment. Rows are
// validated against the schema here, before enqueueing — one client's
// malformed row must not fail the whole coalesced batch it would have
// shared with other connections.
func (s *Server) submitAppend(vals []string, rows []store.Row) (uint64, error) {
	if len(vals) == 0 {
		return s.repl.watermark(), nil
	}
	if fs := s.follow.Load(); fs != nil {
		return 0, &FollowerWriteError{Primary: fs.addr}
	}
	if rows != nil {
		if len(rows) != len(vals) {
			return 0, fmt.Errorf("server: %d rows for %d values", len(rows), len(vals))
		}
		schema := s.b.Schema()
		for _, row := range rows {
			if err := store.ValidateRow(schema, row); err != nil {
				return 0, err
			}
		}
	}
	smet.appendValues.Add(int64(len(vals)))
	req := appendReq{vals: vals, rows: rows, resc: make(chan commitResult, 1)}
	// The read-locked gate pairs with Shutdown: once every connection
	// handler has exited, Shutdown flips sendOff under the write lock
	// and closes the channel — so a submit either lands before the
	// close (and is committed by the drain) or is refused, never sent
	// on a closed channel.
	s.sendMu.RLock()
	if s.sendOff {
		s.sendMu.RUnlock()
		return 0, errDraining
	}
	// A full queue means the store has fallen behind the writers — the
	// send below still blocks (that IS the backpressure), the counter
	// just makes the stall visible.
	select {
	case s.appendCh <- req:
	default:
		smet.stalls.Inc()
		s.appendCh <- req
	}
	s.sendMu.RUnlock()
	res := <-req.resc
	return res.seq, res.err
}
