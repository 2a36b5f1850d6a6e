package server_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/server"
	"repro/store"
)

// gatewayCase is one request of the gateway golden.
type gatewayCase struct {
	method, target, body string
	token                string // X-WT-Consistency-Token, when set
}

func gwGet(target string) gatewayCase { return gatewayCase{method: "GET", target: target} }
func gwPost(target, body string) gatewayCase {
	return gatewayCase{method: "POST", target: target, body: body}
}

// goldenStore opens a fresh columnar store holding 12 values: eight in a
// frozen generation, four in the memtable, rows on most of them.
func goldenStore(t *testing.T) *store.Store {
	t.Helper()
	db, err := store.Open(t.TempDir(), &store.Options{
		DisableAutoFlush: true,
		Columns:          []store.ColumnSpec{{Name: "score", Kind: store.ColUint64}, {Name: "meta", Kind: store.ColBytes}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	vals := []string{"a/1", "a/2", "b/1", "a/1", "c/x", "b/2", "a/3", "a/1", "b/1", "c/y", "a/2", "d"}
	rows := make([]store.Row, len(vals))
	for i := range rows {
		switch i % 4 {
		case 0:
			rows[i] = store.Row{store.U64(uint64(i)), store.Blob([]byte(vals[i]))}
		case 1:
			rows[i] = store.Row{store.U64(uint64(10 * i)), store.Null()}
		case 2:
			rows[i] = store.Row{store.Null(), store.Blob([]byte("m"))}
		}
	}
	if err := db.AppendBatchRows(vals[:8], rows[:8]); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.AppendBatchRows(vals[8:], rows[8:]); err != nil {
		t.Fatal(err)
	}
	return db
}

// gatewayReads are the golden's read requests: every /v1/* read route
// with good and bad parameters.
var gatewayReads = []gatewayCase{
	gwGet("/v1/stats"),
	gwGet("/v1/access?pos=0"), gwGet("/v1/access?pos=11"), gwGet("/v1/access?pos=12"),
	gwGet("/v1/access?pos=-1"), gwGet("/v1/access?pos=x"), gwGet("/v1/access"),
	{method: "POST", target: "/v1/access?pos=1"},
	gwGet("/v1/row?pos=0"), gwGet("/v1/row?pos=3"), gwGet("/v1/row?pos=6"), gwGet("/v1/row?pos=12"), gwGet("/v1/row"),
	gwGet("/v1/rank?v=a/1&pos=5"), gwGet("/v1/rank?v=a/1&pos=12"), gwGet("/v1/rank?v=a/1&pos=13"),
	gwGet("/v1/rank?v=a/1&pos=-1"), gwGet("/v1/rank?v=a/1"), gwGet("/v1/rank?pos=3"),
	gwGet("/v1/count?v=a/1"), gwGet("/v1/count?v=zzz"), gwGet("/v1/count"),
	gwGet("/v1/select?v=a/1&idx=1"), gwGet("/v1/select?v=a/1&idx=2"), gwGet("/v1/select?v=a/1&idx=99"),
	gwGet("/v1/select?v=zzz&idx=0"), gwGet("/v1/select?v=a/1&idx=-1"), gwGet("/v1/select?v=a/1"),
	gwGet("/v1/select?v=a/1&idx=one"),
	gwGet("/v1/rankprefix?p=a/&pos=6"), gwGet("/v1/rankprefix?p=a/&pos=12"), gwGet("/v1/rankprefix?p=a/&pos=13"),
	gwGet("/v1/rankprefix?p=a/"),
	gwGet("/v1/countprefix?p=a/"), gwGet("/v1/countprefix?p=zz"), gwGet("/v1/countprefix"),
	gwGet("/v1/selectprefix?p=b/&idx=0"), gwGet("/v1/selectprefix?p=b/&idx=2"), gwGet("/v1/selectprefix?p=b/&idx=99"),
	gwGet("/v1/selectprefix?p=b/"),
	gwGet("/v1/scan?start=0&n=5"), gwGet("/v1/scan?start=2&n=0"), gwGet("/v1/scan?start=10&n=10"),
	gwGet("/v1/scan?start=99&n=3"), gwGet("/v1/scan?start=12&n=1"), gwGet("/v1/scan?start=3&n=-2"),
	gwGet("/v1/scan?start=-5&n=0"), gwGet("/v1/scan?start=-1&n=3"),
	gwGet("/v1/scan?start=0"), gwGet("/v1/scan?n=3"), gwGet("/v1/scan?start=0&n=x"),
	gwGet("/v1/scanprefix?p=a/"), gwGet("/v1/scanprefix?p=a/&from=1&n=2"), gwGet("/v1/scanprefix?p=a/&from=4&n=1"),
	gwGet("/v1/scanprefix?p=a/&from=99"), gwGet("/v1/scanprefix?p=a/&n=0"), gwGet("/v1/scanprefix?p=a/&from=-1"),
	gwGet("/v1/scanprefix?p=a/&from=x"), gwGet("/v1/scanprefix?p=a/&n=x"), gwGet("/v1/scanprefix"),
	gwGet("/v1/countwhere?p=a/&pred=score%3E%3D5"), gwGet("/v1/countwhere?p=a/"), gwGet("/v1/countwhere"),
	gwGet("/v1/countwhere?pred=score%3E%3D1&pred=score%3C20"), gwGet("/v1/countwhere?pred=meta%3E1"),
	gwGet("/v1/countwhere?pred=nope%3D%3D1"), gwGet("/v1/countwhere?pred=score"),
	{method: "GET", target: "/v1/access?pos=0", token: "1"},
	{method: "GET", target: "/v1/access?pos=0", token: "soon"},
}

// gatewayWrites run after the reads, in order, on the same server.
var gatewayWrites = []gatewayCase{
	gwGet("/v1/append"), gwGet("/v1/flush"), gwGet("/v1/compact"),
	gwPost("/v1/append", `{"values": ["e/1", "e/2"], "rows": [[3, "z"], null]}`),
	gwPost("/v1/append", `{"values": ["e/3"]}`),
	gwPost("/v1/append", `{"values": []}`),
	gwPost("/v1/append", `{"values": ["e/4"`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": []}`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": [[1], [2]]}`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": [[-1, "z"]]}`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": [[true, "z"]]}`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": [[1, "z", 3]]}`),
	gwPost("/v1/append", `{"values": ["e/4"], "rows": [["z", 1]]}`),
	gwPost("/v1/flush", ""),
	gwGet("/v1/stats"),
	gwPost("/v1/compact", ""),
	gwGet("/v1/stats"),
	gwGet("/v1/scan?start=10&n=10"),
	gwGet("/v1/countwhere?p=e/&pred=score%3E%3D1"),
	gwGet("/v1/repl"),
}

// TestGatewayGolden pins every /v1/* route's status, headers and body on
// a fixed columnar store: reads with good and bad parameters, writes,
// 405s, a follower's refused append (421) and a draining server's (503).
// Run with -update to rewrite the golden file.
func TestGatewayGolden(t *testing.T) {
	var out strings.Builder
	record := func(h http.Handler, c gatewayCase) {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		if c.token != "" {
			req.Header.Set("X-WT-Consistency-Token", c.token)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		fmt.Fprintf(&out, "== %s %s", c.method, c.target)
		if c.body != "" {
			fmt.Fprintf(&out, " %s", c.body)
		}
		if c.token != "" {
			fmt.Fprintf(&out, " [token %s]", c.token)
		}
		fmt.Fprintf(&out, "\nstatus: %d\n", rec.Code)
		for _, k := range []string{"Content-Type", "X-WT-Seq", "X-WT-Primary", "Retry-After"} {
			if v := rec.Header().Get(k); v != "" {
				fmt.Fprintf(&out, "%s: %s\n", k, v)
			}
		}
		fmt.Fprintf(&out, "%s\n", rec.Body.String())
	}

	srv := server.New(goldenStore(t), nil)
	h := srv.HTTPHandler()
	for _, c := range gatewayReads {
		record(h, c)
	}
	for _, c := range gatewayWrites {
		record(h, c)
	}

	// A follower refuses writes with the primary's address. Nothing
	// listens there: the refusal needs no stream.
	fol := server.New(goldenStore(t), nil)
	if err := fol.Follow("127.0.0.1:1", "golden"); err != nil {
		t.Fatal(err)
	}
	record(fol.HTTPHandler(), gwPost("/v1/append", `{"values": ["f/1"]}`))
	record(fol.HTTPHandler(), gwGet("/v1/count?v=a/1"))
	record(fol.HTTPHandler(), gwGet("/v1/repl"))
	fol.Shutdown(context.Background())

	// A draining server refuses writes and still answers reads.
	srv.Shutdown(context.Background())
	record(h, gwPost("/v1/append", `{"values": ["g/1"]}`))
	record(h, gwGet("/v1/access?pos=0"))

	path := filepath.Join("testdata", "gateway.golden")
	if *server.UpdateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("gateway output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// TestGatewayReadIsARequest checks that a gateway read is served like a
// binary-protocol request: it counts in wt_server_requests_total and in
// its op's latency series, crosses the slow-op threshold like any other
// request, and an out-of-range position counts as an error.
func TestGatewayReadIsARequest(t *testing.T) {
	var lines []string
	srv := server.New(goldenStore(t), &server.Options{
		SlowOp:    time.Nanosecond,
		SlowOpLog: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	})
	defer srv.Shutdown(context.Background())
	h := srv.HTTPHandler()
	access := obs.Default().NewHistogramVec("wt_server_op_seconds", "", "op", 1e-9).With("access")
	serve := func(target string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec.Code
	}

	reqs, errs, ops := counter("wt_server_requests_total"), counter("wt_server_errors_total"), access.Snapshot().Count
	if code := serve("/v1/access?pos=0"); code != http.StatusOK {
		t.Fatalf("GET /v1/access?pos=0: status %d", code)
	}
	if d := counter("wt_server_requests_total") - reqs; d != 1 {
		t.Errorf("one gateway read raised wt_server_requests_total by %d, want 1", d)
	}
	if d := access.Snapshot().Count - ops; d != 1 {
		t.Errorf(`one gateway read raised wt_server_op_seconds{op="access"} by %d observations, want 1`, d)
	}
	if d := counter("wt_server_errors_total") - errs; d != 0 {
		t.Errorf("a good gateway read raised wt_server_errors_total by %d", d)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "slow op access pos=0") || !strings.Contains(lines[0], "view len=12") {
		t.Errorf("slow-op log after one gateway read = %q, want one access line", lines)
	}

	errs = counter("wt_server_errors_total")
	if code := serve("/v1/access?pos=99"); code != http.StatusBadRequest {
		t.Fatalf("GET /v1/access?pos=99: status %d, want 400", code)
	}
	if d := counter("wt_server_errors_total") - errs; d != 1 {
		t.Errorf("an out-of-range gateway read raised wt_server_errors_total by %d, want 1", d)
	}
}
