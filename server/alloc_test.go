package server

import (
	"context"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
	"repro/store"
)

// TestRequestAllocations guards the request loop's fixed cost. On a store
// that is not changing, a point read pins the view with a pointer load,
// reads its frame into the connection's frame buffer and encodes into the
// connection's response buffer: what is left to allocate is the key's
// string, the answer (Access's string) or the probe a keyed query descends
// with. A scan page is encoded as it streams, so it allocates per page and
// per generation, not per match — on a plain store, and on a sharded one,
// where the page is a merge of every shard's generations.
func TestRequestAllocations(t *testing.T) {
	seq := workload.URLLog(3*2048, 7, workload.DefaultURLConfig())
	// reader is the keyed reads the answers are checked against.
	type reader interface {
		Rank(v string, pos int) int
		Count(v string) int
		CountPrefix(p string) int
		SelectPrefix(p string, idx int) (int, bool)
	}
	type appender interface {
		AppendBatch(vs []string) error
		Flush() error
		Close() error
	}
	for _, arm := range []struct {
		name string
		open func(dir string) (appender, func() reader, Backend)
	}{
		{"plain", func(dir string) (appender, func() reader, Backend) {
			st, err := store.Open(dir, &store.Options{DisableAutoFlush: true})
			if err != nil {
				t.Fatal(err)
			}
			return st, func() reader { return st.Snapshot() }, ForStore(st)
		}},
		{"sharded", func(dir string) (appender, func() reader, Backend) {
			ss, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: 2, Store: store.Options{DisableAutoFlush: true}})
			if err != nil {
				t.Fatal(err)
			}
			return ss, func() reader { return ss.Snapshot() }, ForSharded(ss)
		}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			st, view, backend := arm.open(t.TempDir())
			defer st.Close()
			for g := 0; g < 3; g++ {
				if err := st.AppendBatch(seq[g*2048 : (g+1)*2048]); err != nil {
					t.Fatal(err)
				}
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			sn := view()
			s := New(backend, nil)
			defer s.Shutdown(context.Background())

			var c connState
			// serve runs the loop's per-request step on a frame and returns the
			// response body past its status byte.
			serve := func(frame []byte) []byte {
				resp, _, _ := s.step(&c, frame)
				if len(resp) == 0 || resp[0] != statusOK {
					t.Fatalf("request failed: % x", resp)
				}
				c.release()
				return resp[1:]
			}
			key, prefix := seq[4000], seq[4000][:10]
			for _, tc := range []struct {
				name string
				req  Request
				want uint64 // the reply's first integer; checked for the counting ops
			}{
				{"access", Request{Op: OpAccess, Pos: 4000}, 0},
				{"rank", Request{Op: OpRank, Value: key, Pos: 5000}, uint64(sn.Rank(key, 5000))},
				{"select", Request{Op: OpSelect, Value: key, Pos: 0}, 1},
				{"count", Request{Op: OpCount, Value: key}, uint64(sn.Count(key))},
				{"countprefix", Request{Op: OpCountPrefix, Value: prefix}, uint64(sn.CountPrefix(prefix))},
			} {
				frame := EncodeRequest(tc.req)
				if r := wire.NewRawReader(serve(frame)); tc.req.Op == OpAccess {
					if got := r.Str(); got != seq[4000] {
						t.Fatalf("access = %q, want %q", got, seq[4000])
					}
				} else if got := r.Uvarint(); got != tc.want {
					t.Fatalf("%s = %d, want %d", tc.name, got, tc.want)
				}
				if a := testing.AllocsPerRun(200, func() { serve(frame) }); a > 3 {
					t.Errorf("%s: the request step allocates %.0f times, want at most 3", tc.name, a)
				} else {
					t.Logf("%s: %.0f allocations per request", tc.name, a)
				}
			}

			// A page of 64 matches of a prefix every generation holds.
			const page = 64
			prefix = "host0"
			if n := sn.CountPrefix(prefix); n < 3*page {
				t.Fatalf("only %d values share %q", n, prefix)
			}
			frame := EncodeRequest(Request{Op: OpIteratePrefix, Value: prefix, Pos: 1000, Max: page})
			r := wire.NewRawReader(serve(frame))
			if done, from, n := r.Byte(), r.Uvarint(), r.Uvarint(); done != 0 || from != 1000 || n != page {
				t.Fatalf("page header done=%d from=%d n=%d, want 0, 1000, %d", done, from, n, page)
			}
			for i := 0; i < page; i++ {
				pos, v := int(r.Uvarint()), r.Str()
				if want, ok := sn.SelectPrefix(prefix, 1000+i); !ok || pos != want || v != seq[pos] {
					t.Fatalf("match %d: (%d, %q), want (%d, %q)", i, pos, v, want, seq[want])
				}
			}
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			a := testing.AllocsPerRun(100, func() { serve(frame) })
			t.Logf("scanprefix page of %d: %.0f allocations", page, a)
			if a >= page {
				t.Errorf("a page of %d ScanPrefix matches allocates %.0f times, want fewer than one per match", page, a)
			}
		})
	}
}
