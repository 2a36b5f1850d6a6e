package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/store"
)

// HTTPHandler returns the HTTP/JSON gateway over the same serving
// paths as the binary protocol — appends go through the group
// committer, reads through the store's pinned view:
//
//	GET  /healthz                       liveness (503 while draining)
//	GET  /metrics                       Prometheus text exposition
//	GET  /debug/pprof/...               net/http/pprof profiles
//	GET  /debug/trace                   event tracer ring as JSON
//	GET  /v1/stats                      store shape
//	GET  /v1/access?pos=P
//	GET  /v1/rank?v=V&pos=P             also /v1/count?v=V
//	GET  /v1/select?v=V&idx=I
//	GET  /v1/rankprefix?p=V&pos=P       also /v1/countprefix?p=V
//	GET  /v1/selectprefix?p=V&idx=I
//	GET  /v1/scan?start=P&n=N           at most the batch cap and 4 MiB
//	GET  /v1/scanprefix?p=V&from=I&n=N  prefix matches from the I-th on
//	GET  /v1/row?pos=P                  columnar payload row at P
//	GET  /v1/countwhere?p=V&pred=E      count prefix ∩ predicate matches
//	POST /v1/append                     {"values": ["..."], "rows": [[...]]}
//	POST /v1/flush | /v1/compact
//
// Payload rows render as JSON arrays, one cell per schema column:
// null, a non-negative integer (uint64 column) or a string (bytes
// column). /v1/countwhere takes one ?pred= per predicate, each an
// expression like score>=10 against a uint64 column's name.
//
// The gateway exists for curl-ability and dashboards; bulk traffic
// belongs on the binary protocol.
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
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		st := s.stats()
		writeJSON(w, map[string]any{
			"len": st.Len, "distinct": st.Distinct, "height": st.Height,
			"size_bits": st.SizeBits, "memtable_len": st.MemLen,
			"shards": st.Shards, "generations": len(st.Gens),
			"router_bits":          st.RouterBits,
			"router_frozen_chunks": st.RouterFrozenChunks,
			"router_tail_chunks":   st.RouterTailChunks,
		})
	})
	mux.HandleFunc("/v1/access", s.guard(func(w http.ResponseWriter, r *http.Request) {
		pos, err := intParam(r, "pos")
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"pos": pos, "value": s.db.Snapshot().Access(pos)})
	}))
	mux.HandleFunc("/v1/rank", s.guard(func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query().Get("v")
		pos, err := intParam(r, "pos")
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"rank": s.db.Snapshot().Rank(v, pos)})
	}))
	mux.HandleFunc("/v1/count", s.guard(func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query().Get("v")
		writeJSON(w, map[string]any{"count": s.db.Snapshot().Count(v)})
	}))
	mux.HandleFunc("/v1/select", s.guard(func(w http.ResponseWriter, r *http.Request) {
		v := r.URL.Query().Get("v")
		idx, err := intParam(r, "idx")
		if err != nil {
			httpErr(w, err)
			return
		}
		pos, ok := s.db.Snapshot().Select(v, idx)
		writeJSON(w, map[string]any{"pos": pos, "ok": ok})
	}))
	mux.HandleFunc("/v1/rankprefix", s.guard(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		pos, err := intParam(r, "pos")
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"rank": s.db.Snapshot().RankPrefix(p, pos)})
	}))
	mux.HandleFunc("/v1/countprefix", s.guard(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		writeJSON(w, map[string]any{"count": s.db.Snapshot().CountPrefix(p)})
	}))
	mux.HandleFunc("/v1/selectprefix", s.guard(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		idx, err := intParam(r, "idx")
		if err != nil {
			httpErr(w, err)
			return
		}
		pos, ok := s.db.Snapshot().SelectPrefix(p, idx)
		writeJSON(w, map[string]any{"pos": pos, "ok": ok})
	}))
	mux.HandleFunc("/v1/scan", s.guard(func(w http.ResponseWriter, r *http.Request) {
		start, err := intParam(r, "start")
		if err != nil {
			httpErr(w, err)
			return
		}
		n, err := intParam(r, "n")
		if err != nil {
			httpErr(w, err)
			return
		}
		sn := s.db.Snapshot()
		start = min(start, sn.Len())
		hi := min(sn.Len(), start+min(n, s.opts.MaxIterBatch))
		vals := []string{}
		iteratePage(sn, start, hi, func(v string) { vals = append(vals, v) })
		writeJSON(w, map[string]any{"start": start, "values": vals})
	}))
	mux.HandleFunc("/v1/scanprefix", s.guard(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		// from defaults to 0 (start of the match stream) and n to the
		// iteration batch cap — ?p= alone is a valid first page.
		from, err := optIntParam(r, "from", 0)
		if err != nil || from < 0 {
			httpErr(w, fmt.Errorf("bad ?from="))
			return
		}
		n, err := optIntParam(r, "n", s.opts.MaxIterBatch)
		if err != nil {
			httpErr(w, err)
			return
		}
		sn := s.db.Snapshot()
		positions, vals := []int{}, []string{}
		_, done := s.scanPage(sn, n, false, func(fn func(idx, pos int, v []byte) bool) {
			sn.ScanPrefix(p, from, fn)
		}, func(pos int, v []byte, _ store.Row) {
			positions, vals = append(positions, pos), append(vals, string(v))
		})
		writeJSON(w, map[string]any{"from": from, "positions": positions, "values": vals, "done": done})
	}))
	mux.HandleFunc("/v1/row", s.guard(func(w http.ResponseWriter, r *http.Request) {
		pos, err := intParam(r, "pos")
		if err != nil {
			httpErr(w, err)
			return
		}
		row := s.db.Snapshot().Row(pos) // panics out of range; guard turns it into a 400
		writeJSON(w, map[string]any{"pos": pos, "row": rowToJSON(row)})
	}))
	mux.HandleFunc("/v1/countwhere", s.guard(func(w http.ResponseWriter, r *http.Request) {
		p := r.URL.Query().Get("p")
		preds, err := parsePredParams(r, s.db.Schema())
		if err != nil {
			httpErr(w, err)
			return
		}
		n, err := s.db.Snapshot().CountWhere(p, preds...)
		if err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"count": n})
	}))
	mux.HandleFunc("/v1/append", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var body struct {
			Values []string `json:"values"`
			Rows   [][]any  `json:"rows"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxFrame))
		dec.UseNumber() // uint64 cells would lose precision as float64
		if err := dec.Decode(&body); err != nil {
			httpErr(w, err)
			return
		}
		var rows []store.Row
		if body.Rows != nil {
			if len(body.Rows) != len(body.Values) {
				httpErr(w, fmt.Errorf("%d rows for %d values", len(body.Rows), len(body.Values)))
				return
			}
			rows = make([]store.Row, len(body.Rows))
			for i, jr := range body.Rows {
				row, err := jsonToRow(jr)
				if err != nil {
					httpErr(w, fmt.Errorf("rows[%d]: %w", i, err))
					return
				}
				rows[i] = row
			}
		}
		seq, err := s.submitAppend(body.Values, rows)
		if err != nil {
			// A drain refusal is the server's state, not the client's
			// mistake: 503 tells balancers and clients to retry
			// elsewhere, matching /healthz.
			if errors.Is(err, errDraining) {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			// A follower answers writes with 421 and the primary's
			// address, so a client (or proxy) can re-aim the request.
			var fwe *FollowerWriteError
			if errors.As(err, &fwe) {
				w.Header().Set("X-WT-Primary", fwe.Primary)
				http.Error(w, err.Error(), http.StatusMisdirectedRequest)
				return
			}
			httpErr(w, err)
			return
		}
		// The covering sequence number doubles as the session's
		// consistency token: echo it back to X-WT-Consistency-Token on a
		// follower's gateway to read your own writes there.
		w.Header().Set("X-WT-Seq", strconv.FormatUint(seq, 10))
		writeJSON(w, map[string]any{"appended": len(body.Values), "seq": seq})
	})
	mux.HandleFunc("/v1/repl", func(w http.ResponseWriter, r *http.Request) {
		role := "primary"
		if s.Following() != "" {
			role = "follower"
		}
		writeJSON(w, map[string]any{
			"role":        role,
			"following":   s.Following(),
			"watermark":   s.repl.watermark(),
			"lag_records": s.replLagRecords(),
			"followers":   s.repl.followerAcked(),
		})
	})
	mux.HandleFunc("/v1/flush", s.admin((*Server).flushOp))
	mux.HandleFunc("/v1/compact", s.admin((*Server).compactOp))
	return mux
}

func (s *Server) flushOp() error   { return s.db.Flush() }
func (s *Server) compactOp() error { return s.db.Compact() }

// admin wraps a POST-only maintenance op.
func (s *Server) admin(op func(*Server) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := op(s); err != nil {
			httpErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"ok": true})
	}
}

// httpTokenWait bounds how long a gateway read blocks on a
// consistency token before telling the client to retry.
const httpTokenWait = 5 * time.Second

// guard wraps every gateway read handler: it honors the
// read-your-writes consistency token, and turns a handler's panic
// (out-of-range position) into a 400, mirroring the binary protocol's
// error responses.
//
// A request carrying X-WT-Consistency-Token: <seq> (the seq from an
// append response, on any server of the group) blocks until this
// server's watermark covers it — on a lagging follower the read waits
// for replication to catch up rather than serving a view missing the
// session's own writes. If the token is not covered within
// httpTokenWait, the reply is 503 with Retry-After and the current
// watermark in X-WT-Seq, so the client can retry or fall back to the
// primary.
func (s *Server) guard(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tok := r.Header.Get("X-WT-Consistency-Token"); tok != "" {
			seq, err := strconv.ParseUint(tok, 10, 64)
			if err != nil {
				http.Error(w, "bad X-WT-Consistency-Token", http.StatusBadRequest)
				return
			}
			if !s.waitWatermark(seq, httpTokenWait) {
				w.Header().Set("X-WT-Seq", strconv.FormatUint(s.repl.watermark(), 10))
				w.Header().Set("Retry-After", "1")
				http.Error(w, fmt.Sprintf("watermark %d not yet caught up to token %d", s.repl.watermark(), seq),
					http.StatusServiceUnavailable)
				return
			}
		}
		defer func() {
			if rec := recover(); rec != nil {
				http.Error(w, fmt.Sprint(rec), http.StatusBadRequest)
			}
		}()
		h(w, r)
	}
}

func intParam(r *http.Request, name string) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing ?%s=", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad ?%s=%q", name, raw)
	}
	return v, nil
}

// optIntParam is intParam with a default for an absent parameter.
func optIntParam(r *http.Request, name string, def int) (int, error) {
	if r.URL.Query().Get(name) == "" {
		return def, nil
	}
	return intParam(r, name)
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
		default:
			out[i] = nil
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

// parsePredParams parses the repeated ?pred= expressions of a
// countwhere request against the store's schema.
func parsePredParams(r *http.Request, schema []store.ColumnSpec) ([]store.Pred, error) {
	exprs := r.URL.Query()["pred"]
	if len(exprs) == 0 {
		return nil, nil
	}
	preds := make([]store.Pred, 0, len(exprs))
	for _, e := range exprs {
		p, err := store.ParsePredicate(e, schema)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	return preds, nil
}

func httpErr(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusBadRequest)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
