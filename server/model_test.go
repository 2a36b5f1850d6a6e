package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/model"
	"repro/server"
	"repro/store"
)

// The server's adapter to internal/model: a client read as a
// model.Reader, and a served store — with a follower once one is asked
// for — that the model's runner drives.

// clientReader reads a server through c; fp fingerprints the store
// behind it, which the protocol does not carry.
type clientReader struct {
	c  *server.Client
	fp func() uint64
}

func (r clientReader) Len() (int, error) {
	st, err := r.c.Stats()
	return st.Len, err
}

func (r clientReader) Distinct() (int, error) {
	st, err := r.c.Stats()
	return st.Distinct, err
}

func (r clientReader) Access(pos int) (string, error)      { return r.c.Access(pos) }
func (r clientReader) Rank(v string, pos int) (int, error) { return r.c.Rank(v, pos) }
func (r clientReader) Count(v string) (int, error)         { return r.c.Count(v) }

func (r clientReader) RankPrefix(p string, pos int) (int, error) { return r.c.RankPrefix(p, pos) }
func (r clientReader) CountPrefix(p string) (int, error)         { return r.c.CountPrefix(p) }
func (r clientReader) Slice(l, h int) ([]string, error)          { return r.c.Slice(l, h) }

func (r clientReader) Select(v string, idx int) (int, bool, error) { return r.c.Select(v, idx) }

func (r clientReader) SelectPrefix(p string, idx int) (int, bool, error) {
	return r.c.SelectPrefix(p, idx)
}

func (r clientReader) CountWhere(p string, preds []model.Pred) (int, error) {
	return r.c.CountWhere(p, storePreds(preds)...)
}

func (r clientReader) Row(pos int) (model.Row, error) {
	row, err := r.c.Row(pos)
	return modelRow(row), err
}

func (r clientReader) Fingerprint() (uint64, error) {
	if r.fp == nil {
		return 0, fmt.Errorf("%w: no store behind the client", errors.ErrUnsupported)
	}
	return r.fp(), nil
}

// Page reads the page's matches and the one past them, which tells
// whether there is more, in round trips of about half as many, each
// resumed at the index the last one echoed; its consumer stops at that
// extra match.
func (r clientReader) Page(p string, preds []model.Pred, from, max, stop int) ([]model.Match, bool, error) {
	n := min(max, stop)
	var out []model.Match
	fn := func(idx, pos int, v string, row store.Row) bool {
		out = append(out, model.Match{Idx: idx, Pos: pos, Val: v, Row: modelRow(row)})
		return len(out) <= n
	}
	var err error
	if preds == nil {
		err = r.c.ScanPrefix(p, from, n+1, (n+2)/2, func(idx, pos int, v string) bool { return fn(idx, pos, v, nil) })
	} else {
		err = r.c.ScanWhere(p, storePreds(preds), from, n+1, (n+2)/2, fn)
	}
	return out[:min(n, len(out))], len(out) > n, err
}

// Positions is unsupported: the protocol has no positions-only scan.
func (clientReader) Positions(string, []model.Pred, int, int) ([]int, error) {
	return nil, errors.ErrUnsupported
}

func storePreds(preds []model.Pred) []store.Pred {
	out := make([]store.Pred, len(preds))
	for i, p := range preds {
		out[i] = store.Pred{Col: p.Col, Op: store.PredOp(p.Op), Val: p.Val}
	}
	return out
}

func modelRow(row store.Row) model.Row {
	if row == nil {
		return nil
	}
	out := make(model.Row, len(row))
	for i, c := range row {
		out[i] = model.Cell{Kind: model.Kind(c.Kind()), Num: c.U64(), Blob: string(c.Blob())}
	}
	return out
}

func storeRows(rows []model.Row) []store.Row {
	if rows == nil {
		return nil
	}
	out := make([]store.Row, len(rows))
	for i, row := range rows {
		if row == nil {
			continue
		}
		out[i] = make(store.Row, len(row))
		for j, c := range row {
			switch c.Kind {
			case model.KindU64:
				out[i][j] = store.U64(c.Num)
			case model.KindBytes:
				out[i][j] = store.Blob([]byte(c.Blob))
			}
		}
	}
	return out
}

// readModel reads the whole sequence c serves, values and rows, into a
// model: the expected state of every replica of it.
func readModel(t testing.TB, c *server.Client, schema ...model.Kind) *model.Model {
	t.Helper()
	var vals []string
	var rows []model.Row
	if err := c.ScanWhere("", []store.Pred{}, 0, -1, 0, func(_, _ int, v string, row store.Row) bool {
		vals, rows = append(vals, v), append(rows, modelRow(row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return model.FromSlice(vals, rows, schema...)
}

// modelNode is one served store: its directory, the store, the server on
// loopback and a client of it.
type modelNode struct {
	dir, addr string
	db        *store.Store
	srv       *server.Server
	c         *server.Client
}

func (n *modelNode) reader() clientReader {
	return clientReader{n.c, func() uint64 { return n.db.Snapshot().ContentFingerprint() }}
}

func (n *modelNode) stop() error {
	n.c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	return n.db.Close()
}

// modelServer is the system the runner drives on the server: a primary
// and, after a follow, a follower that a promote makes the primary. A
// reopen or a crash restarts the primary (on a copy of its directory for
// a crash) and drops the follower.
type modelServer struct {
	t        testing.TB
	shards   int
	cols     bool
	prim, fo *modelNode
}

func openModelServer(shards int, cols bool) func(t testing.TB) model.System {
	return func(t testing.TB) model.System {
		ms := &modelServer{t: t, shards: shards, cols: cols}
		ms.prim = ms.start(t.TempDir())
		return ms
	}
}

func (ms *modelServer) start(dir string) *modelNode {
	opts := store.Options{Sync: true, FlushThreshold: 1 << 30, DisableAutoFlush: true}
	if ms.cols {
		opts.Columns = crashSchema()
	}
	db, err := store.OpenSharded(dir, &store.ShardedOptions{Shards: ms.shards, Store: opts})
	if err != nil {
		ms.t.Fatal(err)
	}
	srv := server.New(db, &server.Options{ReplHeartbeat: 50 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ms.t.Fatal(err)
	}
	go srv.Serve(l)
	c, err := server.Dial(l.Addr().String())
	if err != nil {
		ms.t.Fatal(err)
	}
	return &modelNode{dir: dir, addr: l.Addr().String(), db: db, srv: srv, c: c}
}

func (ms *modelServer) Do(c model.Cmd) (uint64, error) {
	switch c.Op {
	case model.OpAppend:
		if c.Rows == nil {
			return ms.prim.c.AppendSeq(c.Vals[0])
		}
		fallthrough
	case model.OpBatch:
		return ms.prim.c.AppendBatchRowsSeq(c.Vals, storeRows(c.Rows))
	case model.OpFlush:
		return 0, ms.prim.c.Flush()
	case model.OpCompact:
		return 0, ms.prim.c.Compact()
	case model.OpFollow:
		if ms.fo == nil {
			ms.fo = ms.start(ms.t.TempDir())
			return 0, ms.fo.srv.Follow(ms.prim.addr, "model")
		}
		return 0, nil
	case model.OpPromote:
		if ms.fo == nil {
			return 0, nil
		}
		if was, err := ms.fo.c.Promote(); err != nil || !was {
			return 0, fmt.Errorf("promote: %v, %v", was, err)
		}
		err := ms.prim.stop()
		ms.prim, ms.fo = ms.fo, nil
		return 0, err
	}
	dir := ms.prim.dir
	if c.Op == model.OpCrash {
		dir = ms.t.TempDir()
		if err := model.CopyDir(ms.prim.dir, dir); err != nil {
			return 0, err
		}
	}
	err := ms.Close()
	ms.prim, ms.fo = ms.start(dir), nil
	return 0, err
}

// Check holds the primary to the model, and the follower once it has
// applied every acknowledged append.
func (ms *modelServer) Check(m *model.Model) error {
	if err := m.Diff(ms.prim.reader()); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if ms.fo == nil {
		return nil
	}
	if _, ok, err := ms.fo.c.WaitFor(m.Acked(), 30*time.Second); err != nil || !ok {
		return fmt.Errorf("follower never applied seq %d: %v", m.Acked(), err)
	}
	if err := m.Diff(ms.fo.reader()); err != nil {
		return fmt.Errorf("follower: %w", err)
	}
	return nil
}

func (ms *modelServer) Close() error {
	if ms.fo != nil {
		ms.fo.stop()
	}
	return ms.prim.stop()
}

// TestModel runs seeded command lists — appends, batches with rows,
// flushes, compactions, reopens, crashes, a follower's start and its
// promotion — on a plain and a two-shard server with columns, holding
// the primary and the follower to the model after each command. Each
// seed's list streams to a follower, promotes it and appends to it:
// batch, flush, compact, follow, batch, promote, batch, reopen (1412);
// batch, flush, crash, follow, append, promote, compact, append (1841).
func TestModel(t *testing.T) {
	for _, tc := range []struct {
		shards int
		seed   int64
	}{{0, 1412}, {2, 1841}} {
		tc := tc
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			t.Parallel()
			g := model.Gen{Ops: []model.Op{model.OpFlush, model.OpCompact, model.OpReopen, model.OpCrash, model.OpFollow, model.OpFollow, model.OpPromote},
				Steps: 8, Batch: 250, Schema: []model.Kind{model.KindU64, model.KindBytes}}
			model.Run(t, g.Schema, openModelServer(tc.shards, true), g.Cmds(tc.seed))
		})
	}
}
