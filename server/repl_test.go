package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/server"
	"repro/store"
)

// replNode is one in-process server plus a handle on its backing store
// so tests can fingerprint content without going through the protocol.
type replNode struct {
	srv  *server.Server
	addr string
	dir  string
	fp   func() uint64
	len  func() int
}

// startReplNode opens a store (plain or sharded) in a temp dir and
// serves it on loopback with fast replication heartbeats.
func startReplNode(t *testing.T, shards int, sopts *store.Options, opts *server.Options) *replNode {
	t.Helper()
	dir := t.TempDir()
	if opts == nil {
		opts = &server.Options{}
	}
	if opts.ReplHeartbeat == 0 {
		opts.ReplHeartbeat = 50 * time.Millisecond
	}
	db, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: shards, Store: derefOpts(sopts)})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		shutdownServer(t, srv)
		db.Close()
	})
	fp := func() uint64 { return db.Snapshot().ContentFingerprint() }
	return &replNode{srv: srv, addr: l.Addr().String(), dir: dir, fp: fp, len: db.Len}
}

func shutdownServer(t *testing.T, srv *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationLiveStream subscribes an empty follower to an empty
// primary and drives appends through both write paths, checking
// convergence, read-your-writes via WaitFor, and the stats surface.
func TestReplicationLiveStream(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			prim := startReplNode(t, shards, nil, nil)
			fol := startReplNode(t, shards, nil, nil)
			if err := fol.srv.Follow(prim.addr, "f-live"); err != nil {
				t.Fatal(err)
			}

			pc := dial(t, prim.addr)
			var seq uint64
			var err error
			if seq, err = pc.AppendSeq("solo/value"); err != nil {
				t.Fatal(err)
			}
			batch := make([]string, 200)
			for i := range batch {
				batch[i] = fmt.Sprintf("live/%03d", i%17)
			}
			if seq, err = pc.AppendBatchSeq(batch); err != nil {
				t.Fatal(err)
			}
			if want := uint64(1 + len(batch)); seq != want {
				t.Fatalf("AppendBatchSeq ack = %d, want %d", seq, want)
			}
			if pc.LastAcked() != seq {
				t.Fatalf("LastAcked = %d, want %d", pc.LastAcked(), seq)
			}

			// Read-your-writes on the follower: wait for the session token,
			// then every read must see the writes.
			fc := dial(t, fol.addr)
			wm, ok, err := fc.WaitFor(seq, 10*time.Second)
			if err != nil || !ok {
				t.Fatalf("WaitFor(%d) = %d, %v, %v", seq, wm, ok, err)
			}
			if got, err := fc.Access(0); err != nil || got != "solo/value" {
				t.Fatalf("follower Access(0) = %q, %v", got, err)
			}
			if n, err := fc.Count("live/003"); err != nil || n == 0 {
				t.Fatalf("follower Count = %d, %v", n, err)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("content fingerprints diverge: follower %x, primary %x", got, want)
			}

			// The stats surface reflects both roles.
			fst, err := fc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if fst.Following != prim.addr {
				t.Fatalf("follower Stats.Following = %q, want %q", fst.Following, prim.addr)
			}
			if fst.Watermark != seq {
				t.Fatalf("follower Stats.Watermark = %d, want %d", fst.Watermark, seq)
			}
			if pst, err := pc.Stats(); err != nil || pst.Distinct != 18 || fst.Distinct != 18 {
				t.Fatalf("Stats.Distinct = %d on the primary (%v), %d on the follower; want 18 on both", pst.Distinct, err, fst.Distinct)
			}
			waitUntil(t, 5*time.Second, "primary to see one follower", func() bool {
				pst, err := pc.Stats()
				return err == nil && pst.Followers == 1
			})
		})
	}
}

// TestReplicationBootstrapSnapshot is the late-joiner table: the
// follower starts after the primary already holds frozen generations
// and a live memtable (with a flush racing the join, so the catch-up
// snapshot may also hold a sealed one), on plain and sharded stores,
// with and without a pinned schema. Every joiner is served the same
// way — record frames out of the primary's snapshot, none larger than
// the catch-up byte cap — converges to the primary's content
// fingerprint, and keeps streaming afterwards.
func TestReplicationBootstrapSnapshot(t *testing.T) {
	for _, tc := range []struct {
		shards int
		schema []store.ColumnSpec
	}{
		{0, nil}, {2, nil}, {0, crashSchema()}, {2, crashSchema()},
	} {
		t.Run(fmt.Sprintf("shards=%d/columns=%v", tc.shards, tc.schema != nil), func(t *testing.T) {
			sopts := &store.Options{DisableAutoFlush: true, Columns: tc.schema}
			prim := startReplNode(t, tc.shards, sopts, nil)
			pc := dial(t, prim.addr)

			n := 0
			appendN := func(vals ...string) uint64 {
				t.Helper()
				var rows []store.Row
				if tc.schema != nil {
					for j := range vals {
						rows = append(rows, crashRowFor(0, n+j))
					}
				}
				n += len(vals)
				seq, err := pc.AppendBatchRowsSeq(vals, rows)
				if err != nil {
					t.Fatal(err)
				}
				return seq
			}
			small := func(k int) []string {
				vals := make([]string, k)
				for i := range vals {
					vals[i] = fmt.Sprintf("boot/%04d", (n+i)*(n+i)%311)
				}
				return vals
			}
			appendN(small(400)...)
			if err := pc.Flush(); err != nil {
				t.Fatal(err)
			}
			appendN(small(300)...)
			if err := pc.Flush(); err != nil {
				t.Fatal(err)
			}
			// Three values that cannot share one frame under the byte cap.
			big := strings.Repeat("x", server.ReplCatchupFrameBytes*3/8)
			appendN(big+"a", big+"b", big+"c")
			seq := appendN(small(200)...)

			// A bare subscriber measures the catch-up frames themselves.
			rc := dialRaw(t, prim.addr)
			r, errText := rc.call(server.Request{Op: server.OpSubscribe, Value: "probe", Seq: 0})
			if errText != "" {
				t.Fatalf("subscribe: %s", errText)
			}
			if head := r.Uvarint(); r.Err() != nil || r.Done() != nil || head != seq {
				t.Fatalf("subscribe handshake: head %d (err %v, trailing %v), want %d alone", head, r.Err(), r.Done(), seq)
			}
			frames := 0
			for next := uint64(0); next < seq; {
				payload := rc.recv()
				// Frame overhead beyond the capped bytes: kind, CRC, three uvarints.
				if len(payload) > server.ReplCatchupFrameBytes+64 {
					t.Fatalf("catch-up frame of %d bytes exceeds the %d-byte cap", len(payload), server.ReplCatchupFrameBytes)
				}
				f, err := server.ParseWALFrame(payload)
				if err != nil {
					t.Fatal(err)
				}
				if f.Kind == server.FrameHeartbeat {
					continue
				}
				frames++
				if f.Kind != server.FrameRecords || f.Seq != next || (tc.schema != nil) != (f.Rows != nil) {
					t.Fatalf("catch-up frame kind %d at seq %d with rows=%v, want records at %d", f.Kind, f.Seq, f.Rows != nil, next)
				}
				next += uint64(len(f.Values))
			}
			if frames < 2 {
				t.Fatalf("catch-up of %d records arrived in %d frames; the byte cap never split one", seq, frames)
			}
			rc.c.Close()

			fol := startReplNode(t, tc.shards, sopts, nil)
			flushed := make(chan error, 1)
			go func() { flushed <- pc.Flush() }()
			if err := fol.srv.Follow(prim.addr, "f-boot"); err != nil {
				t.Fatal(err)
			}
			fc := dial(t, fol.addr)
			if _, ok, err := fc.WaitFor(seq, 30*time.Second); err != nil || !ok {
				t.Fatalf("late-joiner WaitFor(%d): ok=%v err=%v", seq, ok, err)
			}
			if err := <-flushed; err != nil {
				t.Fatal(err)
			}
			if fol.len() != n {
				t.Fatalf("follower len = %d, want %d", fol.len(), n)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("fingerprints diverge after catch-up: %x vs %x", got, want)
			}

			// The stream stays live after catch-up: new appends keep flowing.
			seq = appendN("boot/after")
			if _, ok, err := fc.WaitFor(seq, 10*time.Second); err != nil || !ok {
				t.Fatalf("post-catch-up WaitFor: ok=%v err=%v", ok, err)
			}
			if got, err := fc.Access(n - 1); err != nil || got != "boot/after" {
				t.Fatalf("follower Access(tail) = %q, %v", got, err)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("fingerprints diverge on the live stream: %x vs %x", got, want)
			}

			// Nothing holds a log back for the attached follower: a flush
			// leaves each store directory exactly its live WAL.
			if err := pc.Flush(); err != nil {
				t.Fatal(err)
			}
			dirs := []string{prim.dir}
			if tc.shards > 0 {
				var err error
				if dirs, err = filepath.Glob(filepath.Join(prim.dir, "shard-*")); err != nil || len(dirs) != tc.shards {
					t.Fatalf("shard dirs %v (%v), want %d", dirs, err, tc.shards)
				}
			}
			for _, d := range dirs {
				if wals, _ := filepath.Glob(filepath.Join(d, "wal-*.log")); len(wals) != 1 {
					t.Fatalf("%s holds WALs %v after a flush, want exactly one", d, wals)
				}
			}
		})
	}
}

// TestReplicationDifferential hammers the primary with concurrent
// batched appends, flushes and compactions while a follower tails the
// stream, then quiesces and checks the follower is indistinguishable
// from the primary: equal content fingerprints plus a few hundred
// random probes across the whole op surface against a flat oracle.
func TestReplicationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential replication test is not short")
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sopts := &store.Options{FlushThreshold: 512, DisableAutoFlush: true, Columns: crashSchema()}
			prim := startReplNode(t, shards, sopts, nil)
			fol := startReplNode(t, shards, sopts, nil)
			if err := fol.srv.Follow(prim.addr, "f-diff"); err != nil {
				t.Fatal(err)
			}

			const (
				writers       = 3
				batchesPerW   = 40
				valuesPerCall = 25
			)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var maxSeq uint64
			errc := make(chan error, writers+1)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := dial(t, prim.addr)
					rng := rand.New(rand.NewSource(int64(1000 + w)))
					for i := 0; i < batchesPerW; i++ {
						batch := make([]string, valuesPerCall)
						rows := make([]store.Row, valuesPerCall)
						for j := range batch {
							batch[j] = fmt.Sprintf("d/%d/%02d", w, rng.Intn(40))
							rows[j] = crashRowFor(w, i*valuesPerCall+j)
						}
						seq, err := c.AppendBatchRowsSeq(batch, rows)
						if err != nil {
							errc <- fmt.Errorf("writer %d: %w", w, err)
							return
						}
						mu.Lock()
						if seq > maxSeq {
							maxSeq = seq
						}
						mu.Unlock()
					}
				}(w)
			}
			// Maintenance churn: flush and compact race the writers so the
			// stream crosses generation boundaries and snapshot reshapes.
			stopMaint := make(chan struct{})
			maintDone := make(chan struct{})
			go func() {
				defer close(maintDone)
				c := dial(t, prim.addr)
				for i := 0; ; i++ {
					select {
					case <-stopMaint:
						return
					case <-time.After(20 * time.Millisecond):
					}
					var err error
					if i%3 == 2 {
						err = c.Compact()
					} else {
						err = c.Flush()
					}
					if err != nil {
						errc <- fmt.Errorf("maintenance: %w", err)
						return
					}
				}
			}()

			wg.Wait()
			close(stopMaint)
			<-maintDone
			select {
			case err := <-errc:
				t.Fatal(err)
			default:
			}

			total := writers * batchesPerW * valuesPerCall
			if want := uint64(total); maxSeq != want {
				t.Fatalf("max acked seq = %d, want %d", maxSeq, want)
			}

			// Quiesce: the follower's watermark must cover every ack.
			fc := dial(t, fol.addr)
			if _, ok, err := fc.WaitFor(maxSeq, 30*time.Second); err != nil || !ok {
				t.Fatalf("quiesce WaitFor(%d): ok=%v err=%v", maxSeq, ok, err)
			}
			if fol.len() != total {
				t.Fatalf("follower len = %d, want %d", fol.len(), total)
			}
			if got, want := fol.fp(), prim.fp(); got != want {
				t.Fatalf("fingerprints diverge: follower %x, primary %x", got, want)
			}

			// Oracle probes: the flat sequence from the primary answers
			// every op; the follower must agree on ~200 random probes.
			pc := dial(t, prim.addr)
			oracle, err := pc.Slice(0, total)
			if err != nil {
				t.Fatal(err)
			}
			probeOpSurface(t, fc, oracle, 200)

			// Payload rows replicated with the values: the follower
			// serves the primary's row at every sampled position (the
			// fingerprint equality above already covers all of them).
			for pos := 0; pos < total; pos += 97 {
				fr, err := fc.Row(pos)
				if err != nil {
					t.Fatal(err)
				}
				pr, err := pc.Row(pos)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRow(fr, pr) {
					t.Fatalf("Row(%d): follower %v, primary %v", pos, fr, pr)
				}
			}
		})
	}
}

// probeOpSurface fires n random probes across the full query surface
// of c and checks every answer against the flat oracle.
func probeOpSurface(t *testing.T, c *server.Client, oracle []string, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	distinct := map[string]bool{}
	for _, v := range oracle {
		distinct[v] = true
	}
	values := make([]string, 0, len(distinct))
	for v := range distinct {
		values = append(values, v)
	}
	sort.Strings(values)
	pick := func() string { return values[rng.Intn(len(values))] }
	prefixOf := func(v string) string {
		if len(v) == 0 {
			return ""
		}
		return v[:1+rng.Intn(len(v))]
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // Access
			pos := rng.Intn(len(oracle))
			got, err := c.Access(pos)
			if err != nil || got != oracle[pos] {
				t.Fatalf("probe %d: Access(%d) = %q, %v; want %q", i, pos, got, err, oracle[pos])
			}
		case 1: // Rank
			v, pos := pick(), rng.Intn(len(oracle)+1)
			want := 0
			for _, o := range oracle[:pos] {
				if o == v {
					want++
				}
			}
			got, err := c.Rank(v, pos)
			if err != nil || got != want {
				t.Fatalf("probe %d: Rank(%q,%d) = %d, %v; want %d", i, v, pos, got, err, want)
			}
		case 2: // Count
			v := pick()
			want := 0
			for _, o := range oracle {
				if o == v {
					want++
				}
			}
			got, err := c.Count(v)
			if err != nil || got != want {
				t.Fatalf("probe %d: Count(%q) = %d, %v; want %d", i, v, got, err, want)
			}
		case 3: // Select
			v := pick()
			total := 0
			for _, o := range oracle {
				if o == v {
					total++
				}
			}
			if total == 0 {
				continue
			}
			idx := rng.Intn(total)
			wantPos, seen := -1, 0
			for p, o := range oracle {
				if o == v {
					if seen == idx {
						wantPos = p
						break
					}
					seen++
				}
			}
			pos, ok, err := c.Select(v, idx)
			if err != nil || !ok || pos != wantPos {
				t.Fatalf("probe %d: Select(%q,%d) = %d,%v,%v; want %d", i, v, idx, pos, ok, err, wantPos)
			}
		case 4: // CountPrefix + RankPrefix
			p := prefixOf(pick())
			pos := rng.Intn(len(oracle) + 1)
			wantRank, wantCount := 0, 0
			for j, o := range oracle {
				if strings.HasPrefix(o, p) {
					wantCount++
					if j < pos {
						wantRank++
					}
				}
			}
			gotCount, err := c.CountPrefix(p)
			if err != nil || gotCount != wantCount {
				t.Fatalf("probe %d: CountPrefix(%q) = %d, %v; want %d", i, p, gotCount, err, wantCount)
			}
			gotRank, err := c.RankPrefix(p, pos)
			if err != nil || gotRank != wantRank {
				t.Fatalf("probe %d: RankPrefix(%q,%d) = %d, %v; want %d", i, p, pos, gotRank, err, wantRank)
			}
		case 5: // SelectPrefix
			p := prefixOf(pick())
			var positions []int
			for j, o := range oracle {
				if strings.HasPrefix(o, p) {
					positions = append(positions, j)
				}
			}
			if len(positions) == 0 {
				continue
			}
			idx := rng.Intn(len(positions))
			pos, ok, err := c.SelectPrefix(p, idx)
			if err != nil || !ok || pos != positions[idx] {
				t.Fatalf("probe %d: SelectPrefix(%q,%d) = %d,%v,%v; want %d", i, p, idx, pos, ok, err, positions[idx])
			}
		}
	}
}

// TestFollowerRefusesWritesThenPromote checks the follower's read-only
// contract and its promotion into a writable primary.
func TestFollowerRefusesWritesThenPromote(t *testing.T) {
	prim := startReplNode(t, 0, nil, nil)
	fol := startReplNode(t, 0, nil, nil)
	if err := fol.srv.Follow(prim.addr, "f-promo"); err != nil {
		t.Fatal(err)
	}

	pc := dial(t, prim.addr)
	seq, err := pc.AppendSeq("before/promotion")
	if err != nil {
		t.Fatal(err)
	}
	fc := dial(t, fol.addr)
	if _, ok, err := fc.WaitFor(seq, 10*time.Second); err != nil || !ok {
		t.Fatalf("WaitFor: ok=%v err=%v", ok, err)
	}

	// Writes are refused while following, and the refusal names the
	// primary so clients can re-aim.
	err = fc.Append("refused")
	var se *server.ServerError
	if !asServerError(err, &se) || !strings.Contains(se.Msg, prim.addr) {
		t.Fatalf("follower append error = %v, want ServerError naming %s", err, prim.addr)
	}

	// Promote over the wire: the first call reports it was following,
	// the second that it already was a primary.
	was, err := fc.Promote()
	if err != nil || !was {
		t.Fatalf("Promote = %v, %v; want true", was, err)
	}
	if was, err = fc.Promote(); err != nil || was {
		t.Fatalf("second Promote = %v, %v; want false", was, err)
	}
	if got := fol.srv.Following(); got != "" {
		t.Fatalf("Following() after promote = %q, want empty", got)
	}

	// The promoted server accepts writes and serves its full history.
	seq2, err := fc.AppendSeq("after/promotion")
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq+1 {
		t.Fatalf("post-promotion seq = %d, want %d", seq2, seq+1)
	}
	if got, err := fc.Access(0); err != nil || got != "before/promotion" {
		t.Fatalf("Access(0) = %q, %v", got, err)
	}
	if got, err := fc.Access(1); err != nil || got != "after/promotion" {
		t.Fatalf("Access(1) = %q, %v", got, err)
	}
}

func asServerError(err error, target **server.ServerError) bool {
	se, ok := err.(*server.ServerError)
	if ok {
		*target = se
	}
	return ok
}

// TestReplicationHTTPGateway checks the gateway's replication surface:
// follower writes answer 421 with the primary's address, consistency
// tokens gate reads on the watermark, and /v1/repl reports the role.
func TestReplicationHTTPGateway(t *testing.T) {
	prim := startReplNode(t, 0, nil, nil)
	fol := startReplNode(t, 0, nil, nil)
	if err := fol.srv.Follow(prim.addr, "f-http"); err != nil {
		t.Fatal(err)
	}
	pg := httptest.NewServer(prim.srv.HTTPHandler())
	defer pg.Close()
	fg := httptest.NewServer(fol.srv.HTTPHandler())
	defer fg.Close()

	// A write through the primary gateway carries the ack seq in both
	// the X-WT-Seq header and the JSON body.
	resp, err := http.Post(pg.URL+"/v1/append", "application/json",
		strings.NewReader(`{"values": ["http/a", "http/b"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary append status = %d", resp.StatusCode)
	}
	seq, err := strconv.ParseUint(resp.Header.Get("X-WT-Seq"), 10, 64)
	if err != nil || seq != 2 {
		t.Fatalf("X-WT-Seq = %q (%v), want 2", resp.Header.Get("X-WT-Seq"), err)
	}

	// A write against the follower gateway is misdirected: 421 plus the
	// primary's address.
	resp, err = http.Post(fg.URL+"/v1/append", "application/json",
		strings.NewReader(`{"values": ["nope"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("follower append status = %d, want 421", resp.StatusCode)
	}
	if got := resp.Header.Get("X-WT-Primary"); got != prim.addr {
		t.Fatalf("X-WT-Primary = %q, want %q", got, prim.addr)
	}

	// A read with the write's token waits for replication and then sees
	// the write.
	req, _ := http.NewRequest("GET", fg.URL+"/v1/access?pos=1", nil)
	req.Header.Set("X-WT-Consistency-Token", strconv.FormatUint(seq, 10))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "http/b") {
		t.Fatalf("token read: status %d, body %q", resp.StatusCode, body)
	}

	// A garbage token is a client error.
	req, _ = http.NewRequest("GET", fg.URL+"/v1/access?pos=0", nil)
	req.Header.Set("X-WT-Consistency-Token", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad token status = %d, want 400", resp.StatusCode)
	}

	// A token from the future times out with 503 + Retry-After.
	req, _ = http.NewRequest("GET", fg.URL+"/v1/access?pos=0", nil)
	req.Header.Set("X-WT-Consistency-Token", "99999999")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("future token status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("future token reply carries no Retry-After")
	}

	// /v1/repl names the role on both ends.
	for _, tc := range []struct{ url, role string }{
		{fg.URL, "follower"},
		{pg.URL, "primary"},
	} {
		resp, err := http.Get(tc.url + "/v1/repl")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if !strings.Contains(body, fmt.Sprintf("%q", tc.role)) {
			t.Fatalf("/v1/repl on %s = %q, want role %q", tc.url, body, tc.role)
		}
	}
}

// TestReplicationChain streams through a middle hop: A -> B -> C. The
// middle follower republishes every applied record to its own
// subscribers, and serves a C that joins late out of its own snapshot,
// so the tail converges on both the catch-up and the live stream.
func TestReplicationChain(t *testing.T) {
	a := startReplNode(t, 0, nil, nil)
	b := startReplNode(t, 0, nil, nil)
	c := startReplNode(t, 0, nil, nil)
	if err := b.srv.Follow(a.addr, "chain-b"); err != nil {
		t.Fatal(err)
	}

	ac := dial(t, a.addr)
	vals := make([]string, 150)
	for i := range vals {
		vals[i] = fmt.Sprintf("chain/%03d", i%13)
	}
	seq, err := ac.AppendBatchSeq(vals)
	if err != nil {
		t.Fatal(err)
	}
	bc := dial(t, b.addr)
	if _, ok, err := bc.WaitFor(seq, 15*time.Second); err != nil || !ok {
		t.Fatalf("middle WaitFor(%d): ok=%v err=%v", seq, ok, err)
	}

	if err := c.srv.Follow(b.addr, "chain-c"); err != nil {
		t.Fatal(err)
	}
	cc := dial(t, c.addr)
	for _, stage := range []string{"late join", "live stream"} {
		if _, ok, err := cc.WaitFor(seq, 15*time.Second); err != nil || !ok {
			t.Fatalf("%s: tail WaitFor(%d): ok=%v err=%v", stage, seq, ok, err)
		}
		if got, want := c.fp(), a.fp(); got != want {
			t.Fatalf("%s: chain tail fingerprint %x, head %x", stage, got, want)
		}
		if seq, err = ac.AppendSeq("chain/live"); err != nil {
			t.Fatal(err)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
