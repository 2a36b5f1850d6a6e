package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/store"
)

// HTTPHandler returns the HTTP/JSON gateway. Every /v1/* route but
// /v1/repl is a codec over the binary protocol's request handler: the
// route table turns the URL (or /v1/append's JSON body) into a Request,
// which is served exactly as a frame is — the same op latency series,
// request and error counters, slow-op log and panic guard — and the reply
// is decoded with the client's decoders and rendered as JSON:
//
//	GET  /healthz                       liveness (503 while draining)
//	GET  /metrics                       Prometheus text exposition
//	GET  /debug/pprof/...               net/http/pprof profiles
//	GET  /debug/trace                   event tracer ring as JSON
//	GET  /v1/repl                       replication role, watermark and lag
//	GET  /v1/stats                      OpStats: store shape
//	GET  /v1/access?pos=P               OpAccess
//	GET  /v1/row?pos=P                  OpRow: columnar payload row at P
//	GET  /v1/rank?v=V&pos=P             OpRank; /v1/count?v=V is OpCount
//	GET  /v1/select?v=V&idx=I           OpSelect
//	GET  /v1/rankprefix?p=V&pos=P       OpRankPrefix; /v1/countprefix?p=V
//	GET  /v1/selectprefix?p=V&idx=I     OpSelectPrefix
//	GET  /v1/scan?start=P&n=N           OpIterate: n ≤ 0 is an empty page
//	GET  /v1/scanprefix?p=V&from=I&n=N  OpIteratePrefix: matches from the I-th
//	GET  /v1/countwhere?p=V&pred=E      OpCountWhere
//	POST /v1/append                     OpAppendBatch: {"values": ["..."], "rows": [[...]]}
//	POST /v1/flush | /v1/compact        OpFlush, OpCompact
//
// Pages are bounded like the binary protocol's: the batch cap and 4 MiB.
// Payload rows render as JSON arrays, one cell per schema column: null, a
// non-negative integer (uint64 column) or a string (bytes column).
// /v1/countwhere takes one ?pred= per predicate, like score>=10. An error
// is answered with its text: 503 while draining, 421 with X-WT-Primary
// for a write to a follower, 400 otherwise. A read (a route that is not
// POST-only) carrying X-WT-Consistency-Token waits for it first. The
// gateway exists for curl-ability and dashboards; bulk traffic belongs on
// the binary protocol.
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// /metrics is Prometheus text exposition — scrapers expect exactly
	// this under exactly this path.
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.Default().WritePrometheus(w)
	})
	// The pprof handlers hang off the gateway mux explicitly (the
	// net/http/pprof side-effect registration only covers
	// http.DefaultServeMux, which this gateway never uses).
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		data, err := obs.DefaultTracer.DumpJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(data)
	})
	mux.HandleFunc("/v1/repl", func(w http.ResponseWriter, r *http.Request) {
		role := "primary"
		if s.Following() != "" {
			role = "follower"
		}
		writeJSON(w, obj{
			"role":        role,
			"following":   s.Following(),
			"watermark":   s.repl.watermark(),
			"lag_records": s.replLagRecords(),
			"followers":   s.repl.followerAcked(),
		})
	})
	for name, rt := range routes {
		mux.HandleFunc("/v1/"+name, s.gateway(rt))
	}
	return mux
}

// route is one /v1/* path's translation: the op it serves, how the call
// fills the op's Request (nil: no arguments) and how the op's reply, past
// its status byte, renders as a JSON object. A reply with a "seq" — an
// append's ack — carries it in X-WT-Seq too.
type route struct {
	op     byte
	post   bool // a write or maintenance op: POST only
	parse  func(a *args, req *Request)
	render func(r *wire.Reader, req *Request) obj
}

// obj is a JSON object.
type obj = map[string]any

var routes = map[string]route{
	"stats": {op: OpStats, render: func(r *wire.Reader, _ *Request) obj {
		st := parseStats(r)
		return obj{"len": st.Len, "distinct": st.Distinct, "height": st.Height,
			"size_bits": st.SizeBits, "memtable_len": st.MemLen, "shards": st.Shards,
			"generations": len(st.Gens), "router_bits": st.RouterBits,
			"router_frozen_chunks": st.RouterFrozenChunks, "router_tail_chunks": st.RouterTailChunks}
	}},
	"access": {op: OpAccess, parse: keyed("", "pos"), render: func(r *wire.Reader, req *Request) obj {
		return obj{"pos": req.Pos, "value": r.Str()}
	}},
	"row": {op: OpRow, parse: keyed("", "pos"), render: func(r *wire.Reader, req *Request) obj {
		return obj{"pos": req.Pos, "row": rowToJSON(parseRow(r))}
	}},
	"rank":         {op: OpRank, parse: keyed("v", "pos"), render: numberJSON("rank")},
	"count":        {op: OpCount, parse: keyed("v", ""), render: numberJSON("count")},
	"select":       {op: OpSelect, parse: keyed("v", "idx"), render: optPosJSON},
	"rankprefix":   {op: OpRankPrefix, parse: keyed("p", "pos"), render: numberJSON("rank")},
	"countprefix":  {op: OpCountPrefix, parse: keyed("p", ""), render: numberJSON("count")},
	"selectprefix": {op: OpSelectPrefix, parse: keyed("p", "idx"), render: optPosJSON},
	"scan": {op: OpIterate, parse: func(a *args, req *Request) {
		req.Pos = a.int("start")
		// ?n=0 is an empty page, but a Max of 0 asks for a full one.
		if req.Max = a.int("n"); req.Max == 0 {
			req.Max = -1
		}
	}, render: func(r *wire.Reader, _ *Request) obj {
		_, _, start, vals := parseIteratePage(r, []string{})
		return obj{"start": start, "values": vals}
	}},
	"scanprefix": {op: OpIteratePrefix, parse: func(a *args, req *Request) {
		req.Value = a.Get("p")
		if req.Pos = a.int("from", 0); a.err != nil || req.Pos < 0 {
			a.err = errors.New("bad ?from=")
		}
		req.Max = a.int("n", 0) // 0 asks for the batch cap
	}, render: func(r *wire.Reader, _ *Request) obj {
		done, from, ms := parseMatchPage(r, false, nil)
		positions, vals := []int{}, []string{}
		for _, m := range ms {
			positions, vals = append(positions, m.pos), append(vals, m.val)
		}
		return obj{"from": from, "positions": positions, "values": vals, "done": done}
	}},
	"countwhere": {op: OpCountWhere, parse: func(a *args, req *Request) {
		req.Value = a.Get("p")
		for _, e := range a.Values["pred"] {
			p, err := store.ParsePredicate(e, a.s.db.Schema())
			if err != nil {
				a.err = err
				return
			}
			req.Preds = append(req.Preds, p)
		}
	}, render: numberJSON("count")},
	"append": {op: OpAppendBatch, post: true, parse: (*args).appendBody, render: func(r *wire.Reader, _ *Request) obj {
		return obj{"appended": r.Uvarint(), "seq": r.Uvarint()}
	}},
	"flush":   {op: OpFlush, post: true, render: okJSON},
	"compact": {op: OpCompact, post: true, render: okJSON},
}

// keyed parses a keyed query: Value from ?key= and Pos from ?pos=, each
// when named.
func keyed(key, pos string) func(a *args, req *Request) {
	return func(a *args, req *Request) {
		if key != "" {
			req.Value = a.Get(key)
		}
		if pos != "" {
			req.Pos = a.int(pos)
		}
	}
}

// numberJSON renders a one-count reply as {name: count}.
func numberJSON(name string) func(r *wire.Reader, _ *Request) obj {
	return func(r *wire.Reader, _ *Request) obj { return obj{name: int(r.Uvarint())} }
}

func optPosJSON(r *wire.Reader, _ *Request) obj {
	pos, ok := parseOptPos(r)
	return obj{"pos": pos, "ok": ok}
}

func okJSON(*wire.Reader, *Request) obj { return obj{"ok": true} }

// gateway serves one route: it checks the method, honors the consistency
// token, builds the Request, has serve answer it on a connState of its
// own and renders the reply.
func (s *Server) gateway(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.post && r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if !rt.post && !s.awaitToken(w, r) {
			return
		}
		t0 := time.Now()
		req := Request{Op: rt.op}
		a := args{Values: r.URL.Query(), s: s, w: w, r: r}
		if rt.parse != nil {
			rt.parse(&a, &req)
		}
		var c connState
		resp, _ := s.serve(&c, t0, &req, a.err)
		if c.err != nil {
			writeError(w, c.err)
			return
		}
		body := rt.render(wire.NewRawReader(resp[1:]), &req)
		if seq, ok := body["seq"]; ok {
			// The covering sequence number doubles as the session's
			// consistency token: echo it back to X-WT-Consistency-Token on
			// a follower's gateway to read your own writes there.
			w.Header().Set("X-WT-Seq", fmt.Sprint(seq))
		}
		writeJSON(w, body)
	}
}

// writeError answers a failed call with the error's text: 503 for a
// draining server (retry elsewhere, as /healthz says), 421 with the
// primary's address in X-WT-Primary for a write to a follower (so a
// client or proxy can re-aim it), 400 for anything else.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var fwe *FollowerWriteError
	switch {
	case errors.Is(err, errDraining):
		code = http.StatusServiceUnavailable
	case errors.As(err, &fwe):
		w.Header().Set("X-WT-Primary", fwe.Primary)
		code = http.StatusMisdirectedRequest
	}
	http.Error(w, err.Error(), code)
}

// httpTokenWait bounds how long a gateway read blocks on a
// consistency token before telling the client to retry.
const httpTokenWait = 5 * time.Second

// awaitToken is the gateway's one step before a read reaches the store,
// and reports whether to go on. A request carrying
// X-WT-Consistency-Token: <seq> (the seq from an append response, on any
// server of the group) blocks until this server's watermark covers it —
// on a lagging follower the read waits for replication to catch up rather
// than serving a view missing the session's own writes. If the token is
// not covered within httpTokenWait, the reply is 503 with Retry-After and
// the current watermark in X-WT-Seq, so the client can retry or fall back
// to the primary.
func (s *Server) awaitToken(w http.ResponseWriter, r *http.Request) bool {
	tok := r.Header.Get("X-WT-Consistency-Token")
	if tok == "" {
		return true
	}
	seq, err := strconv.ParseUint(tok, 10, 64)
	if err != nil {
		http.Error(w, "bad X-WT-Consistency-Token", http.StatusBadRequest)
		return false
	}
	if s.waitWatermark(seq, httpTokenWait) {
		return true
	}
	w.Header().Set("X-WT-Seq", strconv.FormatUint(s.repl.watermark(), 10))
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("watermark %d not yet caught up to token %d", s.repl.watermark(), seq),
		http.StatusServiceUnavailable)
	return false
}

// args is one gateway call's parameters, read into a Request; err keeps
// the first bad one.
type args struct {
	url.Values
	s   *Server
	w   http.ResponseWriter
	r   *http.Request
	err error
}

// int returns the integer parameter name. An absent one is def when
// given and an error otherwise.
func (a *args) int(name string, def ...int) int {
	raw := a.Get(name)
	switch {
	case a.err != nil:
	case raw == "" && len(def) > 0:
		return def[0]
	case raw == "":
		a.err = fmt.Errorf("missing ?%s=", name)
	default:
		v, err := strconv.Atoi(raw)
		if err == nil {
			return v
		}
		a.err = fmt.Errorf("bad ?%s=%q", name, raw)
	}
	return 0
}

// appendBody reads /v1/append's JSON body into an OpAppendBatch.
func (a *args) appendBody(req *Request) {
	var body struct {
		Values []string `json:"values"`
		Rows   [][]any  `json:"rows"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(a.w, a.r.Body, MaxFrame))
	dec.UseNumber() // uint64 cells would lose precision as float64
	if a.err = dec.Decode(&body); a.err != nil {
		return
	}
	req.Values = body.Values
	if body.Rows != nil {
		req.Rows = make([]store.Row, len(body.Rows))
	}
	for i, jr := range body.Rows {
		if req.Rows[i], a.err = jsonToRow(jr); a.err != nil {
			a.err = fmt.Errorf("rows[%d]: %w", i, a.err)
			return
		}
	}
}

// rowToJSON renders a payload row for the gateway: null, uint64 as a
// number, bytes as a string.
func rowToJSON(row store.Row) []any {
	if row == nil {
		return nil
	}
	out := make([]any, len(row))
	for i, c := range row {
		switch c.Kind() {
		case store.ColUint64:
			out[i] = c.U64()
		case store.ColBytes:
			out[i] = string(c.Blob())
		}
	}
	return out
}

// jsonToRow decodes one gateway row: a JSON array with one cell per
// schema column — null, a non-negative integer, or a string. An empty
// array is the all-NULL row (nil).
func jsonToRow(cells []any) (store.Row, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	row := make(store.Row, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case nil:
			row[i] = store.Null()
		case json.Number:
			u, err := strconv.ParseUint(v.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cell %d: %q is not a uint64", i, v.String())
			}
			row[i] = store.U64(u)
		case string:
			row[i] = store.Blob([]byte(v))
		default:
			return nil, fmt.Errorf("cell %d: unsupported JSON type %T", i, c)
		}
	}
	return row, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
