package server_test

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
	"repro/server"
	"repro/store"
)

// startServer opens a store in a temp dir, wraps it in a Server and
// serves the binary protocol on loopback. Cleanup drains and closes.
func startServer(t *testing.T, shards int, sopts *store.Options, opts *server.Options) (*server.Server, string) {
	t.Helper()
	dir := t.TempDir()
	var b server.Backend
	var closeStore func() error
	if shards > 0 {
		ss, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: shards, Store: derefOpts(sopts)})
		if err != nil {
			t.Fatal(err)
		}
		b, closeStore = server.ForSharded(ss), ss.Close
	} else {
		st, err := store.Open(dir, sopts)
		if err != nil {
			t.Fatal(err)
		}
		b, closeStore = server.ForStore(st), st.Close
	}
	srv := server.New(b, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		closeStore()
	})
	return srv, l.Addr().String()
}

func derefOpts(o *store.Options) store.Options {
	if o == nil {
		return store.Options{}
	}
	return *o
}

func dial(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// counter reads one of the server's process-wide obs counters by name
// (registration is idempotent, so this returns the live series). Tests
// compare before/after deltas: the registry outlives any one server.
func counter(name string) int64 { return obs.Default().NewCounter(name, "").Value() }

// rawConn speaks the outer framing by hand — u32 little-endian length,
// then the payload — for the tests that need wire shapes Client hides:
// single OpIterate pages, hostile arguments, a replication subscription.
type rawConn struct {
	t *testing.T
	c net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{t: t, c: c}
}

func (rc *rawConn) send(payload []byte) {
	rc.t.Helper()
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	if _, err := rc.c.Write(append(hdr, payload...)); err != nil {
		rc.t.Fatal(err)
	}
}

func (rc *rawConn) recv() []byte {
	rc.t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(20 * time.Second))
	var hdr [4]byte
	if _, err := io.ReadFull(rc.c, hdr[:]); err != nil {
		rc.t.Fatal(err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(rc.c, payload); err != nil {
		rc.t.Fatal(err)
	}
	return payload
}

// call sends one request and returns a reader over the response body,
// or the server's error text when it answered with an error status.
func (rc *rawConn) call(req server.Request) (*wire.Reader, string) {
	rc.t.Helper()
	rc.send(server.EncodeRequest(req))
	r := wire.NewRawReader(rc.recv())
	if status := r.Byte(); status != 0 {
		return nil, r.Str()
	}
	return r, ""
}

// iteratePage issues one OpIterate page: end is the echoed pin (0 on
// the first page). It returns the pinned end, the done flag and the
// page's values, or the server's error text.
func (rc *rawConn) iteratePage(end uint64, pos, max int) (gotEnd uint64, done bool, vals []string, errText string) {
	rc.t.Helper()
	r, errText := rc.call(server.Request{Op: server.OpIterate, Seq: end, Pos: pos, Max: max})
	if errText != "" {
		return 0, false, nil, errText
	}
	gotEnd = r.Uvarint()
	done = r.Byte() == 1
	if start := int(r.Uvarint()); start != pos {
		rc.t.Fatalf("page echoed start %d, want %d", start, pos)
	}
	for i, k := 0, r.Len(); i < k; i++ {
		vals = append(vals, r.Str())
	}
	if err := r.Err(); err != nil {
		rc.t.Fatal(err)
	}
	return gotEnd, done, vals, ""
}

// TestEndToEnd drives the whole op surface over a real connection, on
// both the plain and the sharded backend.
func TestEndToEnd(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := startServer(t, shards, nil, nil)
			c := dial(t, addr)

			vals := []string{"get/a", "get/b", "post/a", "get/a", "put/x", "get/c"}
			if err := c.Append(vals[0]); err != nil {
				t.Fatal(err)
			}
			if err := c.AppendBatch(vals[1:]); err != nil {
				t.Fatal(err)
			}

			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Len != len(vals) {
				t.Fatalf("Stats.Len = %d, want %d", st.Len, len(vals))
			}
			if want := map[bool]int{true: 2, false: 1}[shards == 2]; st.Shards != want {
				t.Fatalf("Stats.Shards = %d, want %d", st.Shards, want)
			}

			for i, want := range vals {
				got, err := c.Access(i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("Access(%d) = %q, want %q", i, got, want)
				}
			}
			if n, err := c.Count("get/a"); err != nil || n != 2 {
				t.Fatalf("Count = %d, %v, want 2", n, err)
			}
			if n, err := c.Rank("get/a", 2); err != nil || n != 1 {
				t.Fatalf("Rank = %d, %v, want 1", n, err)
			}
			if pos, ok, err := c.Select("get/a", 1); err != nil || !ok || pos != 3 {
				t.Fatalf("Select = %d, %v, %v, want 3", pos, ok, err)
			}
			if _, ok, err := c.Select("absent", 0); err != nil || ok {
				t.Fatalf("Select(absent) ok = %v, err %v", ok, err)
			}
			if n, err := c.CountPrefix("get/"); err != nil || n != 4 {
				t.Fatalf("CountPrefix = %d, %v, want 4", n, err)
			}
			if n, err := c.RankPrefix("get/", 3); err != nil || n != 2 {
				t.Fatalf("RankPrefix = %d, %v, want 2", n, err)
			}
			if pos, ok, err := c.SelectPrefix("get/", 3); err != nil || !ok || pos != 5 {
				t.Fatalf("SelectPrefix = %d, %v, %v, want 5", pos, ok, err)
			}

			got, err := c.Slice(0, len(vals))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, ",") != strings.Join(vals, ",") {
				t.Fatalf("Slice = %v, want %v", got, vals)
			}

			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
			st, err = c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Len != len(vals) || st.MemLen != 0 {
				t.Fatalf("after flush: Len=%d MemLen=%d", st.Len, st.MemLen)
			}
			if len(st.Gens) == 0 {
				t.Fatal("no generations after flush")
			}

			// Out-of-range positions are error responses, not dead
			// connections.
			if _, err := c.Access(1 << 40); err == nil {
				t.Fatal("out-of-range Access: no error")
			}
			if _, err := c.Access(0); err != nil {
				t.Fatalf("connection dead after error response: %v", err)
			}
		})
	}
}

// TestCursorPinsSnapshot starts a scan, appends mid-walk (and flushes
// and compacts under it), and checks the walk stays on the view its
// first page pinned while a fresh scan sees the appended tail. The
// server keeps nothing between pages, so the same walk also survives a
// server restart, and an echoed end the server never held is an error.
func TestCursorPinsSnapshot(t *testing.T) {
	_, addr := startServer(t, 0, nil, nil)
	c := dial(t, addr)
	var first []string
	for i := 0; i < 100; i++ {
		first = append(first, fmt.Sprintf("v/%03d", i))
	}
	if err := c.AppendBatch(first); err != nil {
		t.Fatal(err)
	}

	var walked []string
	step := 0
	err := c.Scan(0, -1, 10, func(pos int, v string) bool {
		if step == 5 {
			// Mid-walk append: must not show up in this cursor.
			if err := c.Append("intruder"); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := c.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		step++
		walked = append(walked, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(walked) != len(first) {
		t.Fatalf("pinned walk saw %d values, want %d", len(walked), len(first))
	}
	for i, v := range walked {
		if v != first[i] {
			t.Fatalf("walked[%d] = %q, want %q", i, v, first[i])
		}
	}
	all, err := c.Slice(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if all[100] != "intruder" {
		t.Fatalf("fresh scan tail = %q, want intruder", all[100])
	}

	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		// serve opens the store in dir behind a fresh server; stop drains
		// it and closes the store.
		serve := func() (addr string, stop func()) {
			st, err := store.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			srv := server.New(server.ForStore(st), nil)
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(l)
			return l.Addr().String(), func() {
				shutdownServer(t, srv)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		addr, stop := serve()
		c := dial(t, addr)
		if err := c.AppendBatch(first); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		end, done, walked, errText := dialRaw(t, addr).iteratePage(0, 0, 10)
		if errText != "" || done || end != uint64(len(first)) || len(walked) != 10 {
			t.Fatalf("first page: end=%d done=%v n=%d err=%q", end, done, len(walked), errText)
		}
		if err := c.Append("intruder"); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.Compact(); err != nil { // merges the walked generation away
			t.Fatal(err)
		}
		stop()

		addr, stop = serve()
		defer stop()
		rc := dialRaw(t, addr)
		for !done {
			var vals []string
			var gotEnd uint64
			gotEnd, done, vals, errText = rc.iteratePage(end, len(walked), 10)
			if errText != "" || gotEnd != end || len(vals) == 0 {
				t.Fatalf("page at %d after restart: end=%d n=%d err=%q", len(walked), gotEnd, len(vals), errText)
			}
			walked = append(walked, vals...)
		}
		if fmt.Sprint(walked) != fmt.Sprint(first) {
			t.Fatalf("walk across a restart saw %d values %q, want the %d pinned ones", len(walked), walked, len(first))
		}

		// A hostile or misdirected end names positions this server never
		// held: an error each time, never a clamp or a panic, and the
		// connection keeps serving.
		for _, bad := range []uint64{uint64(len(first)) + 2, math.MaxInt64, math.MaxUint64} {
			if _, _, vals, errText := rc.iteratePage(bad, 0, 10); !strings.Contains(errText, "past the sequence length") {
				t.Fatalf("end=%d: got %d values, err %q; want a past-the-length error", bad, len(vals), errText)
			}
		}
		if end, done, vals, errText := rc.iteratePage(uint64(len(first))+1, len(first), 10); errText != "" || !done ||
			end != uint64(len(first))+1 || len(vals) != 1 || vals[0] != "intruder" {
			t.Fatalf("end=Len page: end=%d done=%v vals=%q err=%q", end, done, vals, errText)
		}
	})
}

// TestGroupCommitCoalesces floods the write path from many goroutines
// and checks the committer folded them into fewer batches.
func TestGroupCommitCoalesces(t *testing.T) {
	_, addr := startServer(t, 0, nil, nil)
	const clients, per = 8, 50
	values0, commits0 := counter("wt_batcher_commit_values_total"), counter("wt_batcher_commits_total")
	coalesced0 := counter("wt_batcher_coalesced_waiters_total")
	errc := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c, err := server.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; i < per; i++ {
				if err := c.Append(fmt.Sprintf("c%d/%03d", g, i)); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	values := counter("wt_batcher_commit_values_total") - values0
	if values != clients*per {
		t.Fatalf("group commits carried %d values, want %d", values, clients*per)
	}
	c := dial(t, addr)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Len != clients*per {
		t.Fatalf("Len = %d, want %d", st.Len, clients*per)
	}
	t.Logf("%d appends committed in %d batches (%d coalesced)", values,
		counter("wt_batcher_commits_total")-commits0, counter("wt_batcher_coalesced_waiters_total")-coalesced0)
}

// TestGracefulDrain checks Shutdown finishes in-flight work, refuses
// new connections, and leaves every acknowledged append in the store.
func TestGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.ForStore(st), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := server.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Append(fmt.Sprintf("v/%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	if _, err := server.Dial(l.Addr().String()); err == nil {
		t.Fatal("dial after drain succeeded")
	}
	// The store is intact and owns every acknowledged append.
	if st.Len() != 20 {
		t.Fatalf("store Len = %d, want 20", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnLimitBackpressure holds MaxConns connections and checks a
// further client is not served until a slot frees.
func TestConnLimitBackpressure(t *testing.T) {
	_, addr := startServer(t, 0, nil, &server.Options{MaxConns: 2})
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if err := c1.Append("a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Append("b"); err != nil {
		t.Fatal(err)
	}
	// The third connection parks in the backlog: its Ping cannot
	// complete while both slots are held.
	done := make(chan error, 1)
	go func() {
		c3, err := server.Dial(addr)
		if err == nil {
			defer c3.Close()
			_, err = c3.Count("a")
		}
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("third connection served while slots full (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("third connection after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("third connection never served after slot freed")
	}
}

// TestHTTPGateway drives the JSON endpoints through httptest.
func TestHTTPGateway(t *testing.T) {
	srv, addr := startServer(t, 0, nil, nil)
	_ = addr
	ts := httptest.NewServer(srv.HTTPHandler())
	defer ts.Close()

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}
	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	post("/v1/append", `{"values":["x/a","x/b","y/c","x/a"]}`)
	if out := get("/v1/count?v=x/a"); out["count"].(float64) != 2 {
		t.Fatalf("count = %v", out)
	}
	if out := get("/v1/access?pos=2"); out["value"].(string) != "y/c" {
		t.Fatalf("access = %v", out)
	}
	if out := get("/v1/countprefix?p=x/"); out["count"].(float64) != 3 {
		t.Fatalf("countprefix = %v", out)
	}
	if out := get("/v1/select?v=x/a&idx=1"); out["pos"].(float64) != 3 || out["ok"].(bool) != true {
		t.Fatalf("select = %v", out)
	}
	if out := get("/v1/scan?start=1&n=2"); len(out["values"].([]any)) != 2 {
		t.Fatalf("scan = %v", out)
	}
	// ?p= alone is a valid first page: from defaults to 0, n to the cap.
	if out := get("/v1/scanprefix?p=x/"); len(out["values"].([]any)) != 3 || out["done"].(bool) != true {
		t.Fatalf("scanprefix = %v", out)
	}
	if out := get("/v1/scanprefix?p=x/&from=1&n=1"); out["done"].(bool) != false ||
		out["values"].([]any)[0].(string) != "x/b" || out["positions"].([]any)[0].(float64) != 1 {
		t.Fatalf("scanprefix paged = %v", out)
	}
	post("/v1/flush", "")
	if out := get("/v1/stats"); out["memtable_len"].(float64) != 0 || out["len"].(float64) != 4 {
		t.Fatalf("stats = %v", out)
	}
	// /metrics is Prometheus text exposition, not JSON.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil || mresp.StatusCode != 200 {
		t.Fatalf("metrics: %v %v", mresp.StatusCode, err)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"# TYPE wt_server_requests_total counter",
		"wt_server_op_seconds_bucket",
		"wt_batcher_batch_size",
		"wt_wal_fsync_seconds",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, mbody)
		}
	}
	// The tracer dump is JSON.
	tresp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil || tresp.StatusCode != 200 {
		t.Fatalf("debug/trace: %v %v", tresp.StatusCode, err)
	}
	var spans []map[string]any
	if err := json.NewDecoder(tresp.Body).Decode(&spans); err != nil {
		t.Fatalf("debug/trace not JSON: %v", err)
	}
	tresp.Body.Close()
	// pprof is wired onto the gateway mux.
	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil || presp.StatusCode != 200 {
		t.Fatalf("debug/pprof: %v %v", presp.StatusCode, err)
	}
	presp.Body.Close()
	// Bad positions are 400s, not crashes.
	if resp, err := http.Get(ts.URL + "/v1/access?pos=99999"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oob access: %v %v", resp.StatusCode, err)
	}
}

// TestScanLargeValues walks values big enough that a count-capped
// batch would blow the frame limit: the byte budget must split the
// response across round trips instead of killing the connection.
func TestScanLargeValues(t *testing.T) {
	_, addr := startServer(t, 0, nil, nil)
	c := dial(t, addr)
	big := strings.Repeat("x", 1<<20) // 1 MiB per value
	vals := make([]string, 12)
	for i := range vals {
		vals[i] = fmt.Sprintf("%02d/%s", i, big)
	}
	if err := c.AppendBatch(vals); err != nil {
		t.Fatal(err)
	}
	var got int
	err := c.Scan(0, -1, 1024, func(pos int, v string) bool {
		if v != vals[pos] {
			t.Fatalf("Scan pos %d: wrong value (len %d)", pos, len(v))
		}
		got++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != len(vals) {
		t.Fatalf("Scan saw %d values, want %d", got, len(vals))
	}
}

// TestScanPrefix drives the stateless prefix iteration end to end on
// both backends: paginated resume by match index, early stop, bounded
// n, and absent prefixes. The sharded run also checks that Stats
// surfaces the router representation split.
func TestScanPrefix(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, addr := startServer(t, shards, nil, nil)
			c := dial(t, addr)

			vals := make([]string, 500)
			for i := range vals {
				vals[i] = fmt.Sprintf("p%d/%03d", i%3, i)
			}
			if err := c.AppendBatch(vals); err != nil {
				t.Fatal(err)
			}
			var want []int
			for pos, v := range vals {
				if strings.HasPrefix(v, "p1/") {
					want = append(want, pos)
				}
			}
			// Small batch forces several round trips of stateless resume.
			var got []int
			err := c.ScanPrefix("p1/", 0, -1, 7, func(idx, pos int, v string) bool {
				if idx != len(got) || v != vals[pos] {
					t.Fatalf("ScanPrefix yield idx=%d pos=%d v=%q, have %d matches", idx, pos, v, len(got))
				}
				got = append(got, pos)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("ScanPrefix positions = %v, want %v", got, want)
			}
			// Offset + bounded n: matches [5, 5+9).
			var window []int
			err = c.ScanPrefix("p1/", 5, 9, 4, func(idx, pos int, _ string) bool {
				if idx != 5+len(window) {
					t.Fatalf("window yield idx=%d, want %d", idx, 5+len(window))
				}
				window = append(window, pos)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(window) != fmt.Sprint(want[5:14]) {
				t.Fatalf("window = %v, want %v", window, want[5:14])
			}
			// Early stop and absent prefix.
			calls := 0
			if err := c.ScanPrefix("p", 0, -1, 16, func(int, int, string) bool { calls++; return calls < 3 }); err != nil {
				t.Fatal(err)
			}
			if calls != 3 {
				t.Fatalf("early stop after %d calls", calls)
			}
			if err := c.ScanPrefix("zzz", 0, -1, 0, func(int, int, string) bool {
				t.Fatal("absent prefix yielded a match")
				return false
			}); err != nil {
				t.Fatal(err)
			}

			st, err := c.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if shards > 0 {
				if st.RouterBits <= 0 || st.RouterTailChunks == 0 {
					t.Fatalf("sharded stats missing router split: %+v", st)
				}
			} else if st.RouterBits != 0 {
				t.Fatalf("plain stats reports router bits: %+v", st)
			}
		})
	}
}
