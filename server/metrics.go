package server

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// smet is the server package's metric set, registered once in the
// process-wide obs registry next to the store's (see store/metrics.go
// for the rationale: idempotent registration, engine-wide series).
var smet = newServerMetrics(obs.Default())

// serverMetrics holds the pre-resolved handles the serving paths
// record into.
type serverMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	conns    *obs.Counter
	// opSeconds is indexed by opcode; slot 0 catches unparseable
	// requests. Children are resolved here, once, so the per-request
	// record is a plain array load.
	opSeconds [opLimit]*obs.Histogram

	appendValues  *obs.Counter
	groupCommits  *obs.Counter
	commitValues  *obs.Counter
	coalesced     *obs.Counter
	stalls        *obs.Counter
	batchSize     *obs.Histogram
	commitSeconds *obs.Histogram

	// Replication: the primary's shipping side, the follower's applying
	// side, and the churn between them.
	replShippedRecords *obs.Counter
	replShippedBytes   *obs.Counter
	replAcks           *obs.Counter
	replEvictedSubs    *obs.Counter
	replReconnects     *obs.Counter
	replAppliedRecords *obs.Counter
}

func newServerMetrics(r *obs.Registry) *serverMetrics {
	m := &serverMetrics{
		requests: r.NewCounter("wt_server_requests_total",
			"Binary-protocol requests served (including failed ones)."),
		errors: r.NewCounter("wt_server_errors_total",
			"Requests answered with an error status (decode failures and panics)."),
		conns: r.NewCounter("wt_server_conns_total",
			"Binary-protocol connections accepted."),

		appendValues: r.NewCounter("wt_server_append_values_total",
			"Values accepted on the write path (before batching)."),
		groupCommits: r.NewCounter("wt_batcher_commits_total",
			"Group commits issued by the committer."),
		commitValues: r.NewCounter("wt_batcher_commit_values_total",
			"Values carried by group commits."),
		coalesced: r.NewCounter("wt_batcher_coalesced_waiters_total",
			"Waiters whose append rode another waiter's commit."),
		stalls: r.NewCounter("wt_batcher_stalls_total",
			"Append submissions that blocked on a full commit queue (backpressure)."),
		batchSize: r.NewHistogram("wt_batcher_batch_size",
			"Values per group commit.", 1),
		commitSeconds: r.NewHistogram("wt_batcher_commit_seconds",
			"Latency of the backend AppendBatch call under each group commit.", 1e-9),

		replShippedRecords: r.NewCounter("wt_repl_shipped_records_total",
			"Records shipped to replication subscribers (live and catch-up frames)."),
		replShippedBytes: r.NewCounter("wt_repl_shipped_bytes_total",
			"Framed bytes of record frames shipped to replication subscribers."),
		replAcks: r.NewCounter("wt_repl_acks_total",
			"Watermark acknowledgements received from followers."),
		replEvictedSubs: r.NewCounter("wt_repl_evicted_subscribers_total",
			"Subscribers evicted because their connection could not keep up with commits."),
		replReconnects: r.NewCounter("wt_repl_reconnects_total",
			"Follower reconnect attempts after a broken replication stream."),
		replAppliedRecords: r.NewCounter("wt_repl_applied_records_total",
			"Records applied from a replication stream (catch-up and live)."),
	}

	ops := r.NewHistogramVec("wt_server_op_seconds",
		"Binary-protocol request latency by op (parse to response encode).", "op", 1e-9)
	for op := 0; op < int(opLimit); op++ {
		m.opSeconds[op] = ops.With(opName(byte(op)))
	}

	r.NewGaugeFunc("wt_server_conns_active",
		"Binary-protocol connections currently being served.",
		func() int64 {
			var n int64
			for _, s := range liveServers.all() {
				s.mu.Lock()
				n += int64(len(s.conns))
				s.mu.Unlock()
			}
			return n
		})
	r.NewGaugeFunc("wt_batcher_queue_depth",
		"Append submissions waiting for the committer.",
		func() int64 {
			var n int64
			for _, s := range liveServers.all() {
				n += int64(len(s.appendCh))
			}
			return n
		})
	r.NewGaugeFunc("wt_repl_followers",
		"Distinct follower ids currently subscribed across live servers.",
		func() int64 {
			var n int64
			for _, s := range liveServers.all() {
				n += int64(s.repl.followerCount())
			}
			return n
		})
	r.NewGaugeFunc("wt_repl_lag_records",
		"Replication lag in records: watermark behind the primary head (followers), slowest acked watermark behind the head (primaries).",
		func() int64 {
			var n int64
			for _, s := range liveServers.all() {
				n += s.replLagRecords()
			}
			return n
		})
	r.NewGaugeFunc("wt_repl_watermark",
		"Committed replication watermark (head sequence number) summed across live servers.",
		func() int64 {
			var n int64
			for _, s := range liveServers.all() {
				n += int64(s.repl.watermark())
			}
			return n
		})

	return m
}

// observeOp records one request's latency under its opcode's series.
func (m *serverMetrics) observeOp(op byte, ns int64) {
	if int(op) >= len(m.opSeconds) {
		op = 0
	}
	m.opSeconds[op].Observe(ns)
}

// opNames maps opcodes to their Prometheus label values (and slow-op
// log names). Slot 0 is the unparseable-request series.
var opNames = [opLimit]string{
	0:               "invalid",
	OpPing:          "ping",
	OpAppend:        "append",
	OpAppendBatch:   "append_batch",
	OpAccess:        "access",
	OpRank:          "rank",
	OpCount:         "count",
	OpSelect:        "select",
	OpRankPrefix:    "rank_prefix",
	OpCountPrefix:   "count_prefix",
	OpSelectPrefix:  "select_prefix",
	OpIterate:       "iterate",
	OpFlush:         "flush",
	OpCompact:       "compact",
	OpStats:         "stats",
	OpMetrics:       "metrics",
	OpIteratePrefix: "iterate_prefix",
	OpSubscribe:     "subscribe",
	OpReplWait:      "repl_wait",
	OpPromote:       "promote",
	OpRow:           "row",
	OpScanWhere:     "scan_where",
}

// opName returns the label value for an opcode ("invalid" for anything
// outside the table).
func opName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "invalid"
}

// liveServers tracks running Servers for the gauge funcs above, the
// same live-instance pattern as store.liveStores. Servers register in
// New and deregister in Shutdown.
var liveServers = &serverSet{m: make(map[*Server]struct{})}

type serverSet struct {
	mu sync.Mutex
	m  map[*Server]struct{}
}

func (ss *serverSet) add(s *Server)    { ss.mu.Lock(); ss.m[s] = struct{}{}; ss.mu.Unlock() }
func (ss *serverSet) remove(s *Server) { ss.mu.Lock(); delete(ss.m, s); ss.mu.Unlock() }

func (ss *serverSet) all() []*Server {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]*Server, 0, len(ss.m))
	for s := range ss.m {
		out = append(out, s)
	}
	return out
}

// keyShape renders a request's argument shape for the slow-op log:
// enough to find the offending key class without dumping whole values
// into logs.
func keyShape(req *Request) string {
	switch req.Op {
	case OpAppend, OpRank, OpCount, OpSelect, OpRankPrefix, OpCountPrefix, OpSelectPrefix:
		v := req.Value
		if len(v) > 32 {
			return fmt.Sprintf("%q…(len=%d)", v[:32], len(v))
		}
		return fmt.Sprintf("%q", v)
	case OpAppendBatch:
		return fmt.Sprintf("batch(n=%d)", len(req.Values))
	case OpAccess, OpRow:
		return fmt.Sprintf("pos=%d", req.Pos)
	case OpScanWhere:
		p := req.Value
		if len(p) > 32 {
			p = p[:32] + "…"
		}
		return fmt.Sprintf("prefix=%q preds=%d from=%d max=%d", p, len(req.Preds), req.Pos, req.Max)
	case OpIterate:
		return fmt.Sprintf("start=%d max=%d end=%d", req.Pos, req.Max, req.Seq)
	case OpIteratePrefix:
		p := req.Value
		if len(p) > 32 {
			p = p[:32] + "…"
		}
		return fmt.Sprintf("prefix=%q from=%d max=%d", p, req.Pos, req.Max)
	default:
		return "-"
	}
}
