package store

import (
	"fmt"
	"testing"

	"repro/internal/model"
)

// The store's adapter to internal/model: a Snapshot read as a
// model.Reader, and a store the model's runner drives, in each of the
// layouts every model test runs on.

// ModelReader reads sn as a model.Reader.
func ModelReader(sn *Snapshot) model.Reader { return snapReader{sn} }

type snapReader struct{ sn *Snapshot }

func (r snapReader) Len() (int, error)                         { return r.sn.Len(), nil }
func (r snapReader) Access(pos int) (string, error)            { return r.sn.Access(pos), nil }
func (r snapReader) Rank(v string, pos int) (int, error)       { return r.sn.Rank(v, pos), nil }
func (r snapReader) Count(v string) (int, error)               { return r.sn.Count(v), nil }
func (r snapReader) RankPrefix(p string, pos int) (int, error) { return r.sn.RankPrefix(p, pos), nil }
func (r snapReader) CountPrefix(p string) (int, error)         { return r.sn.CountPrefix(p), nil }
func (r snapReader) Distinct() (int, error)                    { return r.sn.AlphabetSize(), nil }
func (r snapReader) Row(pos int) (model.Row, error)            { return modelRow(r.sn.Row(pos)), nil }
func (r snapReader) Slice(l, h int) ([]string, error)          { return r.sn.Slice(l, h), nil }
func (r snapReader) Fingerprint() (uint64, error)              { return r.sn.ContentFingerprint(), nil }

func (r snapReader) Select(v string, idx int) (int, bool, error) {
	pos, ok := r.sn.Select(v, idx)
	return pos, ok, nil
}

func (r snapReader) SelectPrefix(p string, idx int) (int, bool, error) {
	pos, ok := r.sn.SelectPrefix(p, idx)
	return pos, ok, nil
}

func (r snapReader) CountWhere(p string, preds []model.Pred) (int, error) {
	return r.sn.CountWhere(p, storePreds(preds)...)
}

func (r snapReader) Page(p string, preds []model.Pred, from, max, stop int) ([]model.Match, bool, error) {
	var out []model.Match
	if preds == nil {
		more := r.sn.ScanPrefix(p, from, max, func(idx, pos int, v []byte) bool {
			out = append(out, model.Match{Idx: idx, Pos: pos, Val: string(v)})
			return len(out) < stop
		})
		return out, more, nil
	}
	more, err := r.sn.ScanWhere(p, from, max, storePreds(preds), func(idx, pos int, v []byte, row Row) bool {
		out = append(out, model.Match{Idx: idx, Pos: pos, Val: string(v), Row: modelRow(row)})
		return len(out) < stop
	})
	return out, more, err
}

func (r snapReader) Positions(p string, preds []model.Pred, from, stop int) ([]int, error) {
	return positions(r.sn.IteratePrefix, r.sn.IterateWhere, p, preds, from, stop)
}

// positions collects the first stop positions of a positions-only scan.
func positions(prefix func(string, int, func(int, int) bool), where func(string, int, []Pred, func(int, int) bool) error,
	p string, preds []model.Pred, from, stop int) ([]int, error) {
	var out []int
	fn := func(_, pos int) bool {
		out = append(out, pos)
		return len(out) < stop
	}
	if preds == nil {
		prefix(p, from, fn)
		return out, nil
	}
	return out, where(p, from, storePreds(preds), fn)
}

// CheckModel holds sn to the model of vals with rows (either may be
// nil, and so may any row) under a schema of the given column kinds.
func CheckModel(t testing.TB, sn *Snapshot, vals []string, rows []Row, schema ...model.Kind) {
	t.Helper()
	model.FromSlice(vals, modelRows(rows), schema...).Check(t, snapReader{sn})
}

func modelRows(rows []Row) []model.Row {
	out := make([]model.Row, len(rows))
	for i, row := range rows {
		out[i] = modelRow(row)
	}
	return out
}

func storePreds(preds []model.Pred) []Pred {
	out := make([]Pred, len(preds))
	for i, p := range preds {
		out[i] = Pred{Col: p.Col, Op: PredOp(p.Op), Val: p.Val}
	}
	return out
}

func modelRow(row Row) model.Row {
	if row == nil {
		return nil
	}
	out := make(model.Row, len(row))
	for i, c := range row {
		out[i] = model.Cell{Kind: model.Kind(c.Kind()), Num: c.U64(), Blob: string(c.Blob())}
	}
	return out
}

// StoreRows converts model rows to the store's.
func StoreRows(rows []model.Row) []Row {
	if rows == nil {
		return nil
	}
	out := make([]Row, len(rows))
	for i, row := range rows {
		if row == nil {
			continue
		}
		out[i] = make(Row, len(row))
		for j, c := range row {
			switch c.Kind {
			case model.KindU64:
				out[i][j] = U64(c.Num)
			case model.KindBytes:
				out[i][j] = Blob([]byte(c.Blob))
			}
		}
	}
	return out
}

// ModelLayout is a store shape the model tests run on: a flat store or
// one of Shards shards, with the model schema's columns or none. Cut
// also holds views cut inside a generation and inside the memtable — the
// cut Snapshot makes of a shard whose view runs past the watermark — to
// the model's prefix.
type ModelLayout struct {
	Name   string
	Shards int
	Cols   bool
	Cut    bool
}

// ModelLayouts are the layouts every model test runs on.
var ModelLayouts = []ModelLayout{
	{Name: "flat"},
	{Name: "shards=1", Shards: 1, Cols: true},
	{Name: "shards=2", Shards: 2, Cols: true, Cut: true},
	{Name: "shards=3", Shards: 3},
	{Name: "columnar", Cols: true},
}

// ModelSchema is the schema of a layout with columns, modelColumns' kinds.
var ModelSchema = []model.Kind{model.KindU64, model.KindBytes}

var modelColumns = []ColumnSpec{{Name: "n", Kind: ColUint64}, {Name: "b", Kind: ColBytes}}

// Schema returns the layout's model schema.
func (l ModelLayout) Schema() []model.Kind {
	if l.Cols {
		return ModelSchema
	}
	return nil
}

// Open returns the layout's store system for the model's runner, in a
// fresh directory: synced, and flushed only when a command says so.
func (l ModelLayout) Open(t testing.TB) model.System {
	ms := &modelStore{t: t, l: l, dir: t.TempDir()}
	ms.open()
	return ms
}

type modelStore struct {
	t      testing.TB
	l      ModelLayout
	dir    string
	s      *Store
	checks int
}

// open opens the store, creating it with the layout's columns; a reopen
// names none, so the store must adopt the schema its manifest pins.
func (ms *modelStore) open() {
	opts := Options{Sync: true, FlushThreshold: 1 << 30, DisableAutoFlush: true}
	if ms.l.Cols && ms.s == nil {
		opts.Columns = modelColumns
	}
	s, err := OpenSharded(ms.dir, &ShardedOptions{Shards: ms.l.Shards, Store: opts})
	if err != nil {
		ms.t.Fatal(err)
	}
	ms.s = s
}

func (ms *modelStore) Do(c model.Cmd) (uint64, error) {
	switch c.Op {
	case model.OpAppend:
		var row Row
		if c.Rows != nil {
			row = StoreRows(c.Rows)[0]
		}
		return 0, ms.s.AppendRow(c.Vals[0], row)
	case model.OpBatch:
		return 0, ms.s.AppendBatchRows(c.Vals, StoreRows(c.Rows))
	case model.OpFlush:
		return 0, ms.s.Flush()
	case model.OpCompact:
		return 0, ms.s.Compact()
	case model.OpCrash:
		crashed := ms.t.TempDir()
		if err := model.CopyDir(ms.dir, crashed); err != nil {
			return 0, err
		}
		ms.dir = crashed
	}
	err := ms.s.Close() // reopen, or leave the crashed original
	ms.open()
	return 0, err
}

// Check holds the store's view and the store itself to the model, and on
// a cut layout a view cut short of its end or — every other check — at
// its middle to the model's prefix. A one-shard view has no router, so
// it costs what its shard's own view does.
func (ms *modelStore) Check(m *model.Model) error {
	sn := ms.s.Snapshot()
	if want := map[bool][]ColumnSpec{true: modelColumns}[ms.l.Cols]; !schemaEqual(sn.Schema(), want) {
		return fmt.Errorf("%s: schema %+v, want %+v", ms.l.Name, sn.Schema(), want)
	}
	if err := m.Diff(snapReader{sn}); err != nil {
		return fmt.Errorf("%s snapshot: %w", ms.l.Name, err)
	}
	if err := m.Diff(storeReader{model.Seq(ms.s), ms.s}); err != nil {
		return fmt.Errorf("%s store: %w", ms.l.Name, err)
	}
	if one := ms.s.shards[0].snapshot(); ms.s.ShardCount() == 1 && (sn.SizeBits() != one.SizeBits() || sn.Height() != one.Height()) {
		return fmt.Errorf("%s: SizeBits, Height = %d, %d; its one shard's %d, %d", ms.l.Name, sn.SizeBits(), sn.Height(), one.SizeBits(), one.Height())
	}
	if !ms.l.Cut || sn.n < 2 {
		return nil
	}
	n := sn.n - 1 // in the memtable, or in the last generation after a flush
	if ms.checks++; ms.checks%2 == 0 {
		n = sn.n / 2
	}
	// The cut Store.Snapshot makes of views that run past the watermark.
	cut := &Snapshot{n: n, schema: sn.schema, r: sn.r, shards: make([]*shardView, len(sn.shards))}
	for i, v := range sn.shards {
		cut.shards[i] = v.prefixed(cut.cut(i, n))
	}
	if err := m.Prefix(n).Diff(snapReader{cut}); err != nil {
		return fmt.Errorf("%s view cut at %d: %w", ms.l.Name, n, err)
	}
	return nil
}

func (ms *modelStore) Close() error { return ms.s.Close() }

// storeReader reads a store through its own methods: the primitives of
// model.Seq and the store's alphabet, rows, predicate counts and
// positions-only scans.
type storeReader struct {
	model.Reader
	s *Store
}

func (r storeReader) Distinct() (int, error)         { return r.s.AlphabetSize(), nil }
func (r storeReader) Row(pos int) (model.Row, error) { return modelRow(r.s.Row(pos)), nil }

func (r storeReader) CountWhere(p string, preds []model.Pred) (int, error) {
	return r.s.CountWhere(p, storePreds(preds)...)
}

func (r storeReader) Positions(p string, preds []model.Pred, from, stop int) ([]int, error) {
	return positions(r.s.IteratePrefix, r.s.IterateWhere, p, preds, from, stop)
}

// TestModel runs seeded command lists — appends, batches with rows,
// flushes, compactions, reopens and crashes — on every layout, holding
// the store to the model after each command.
func TestModel(t *testing.T) {
	for i, l := range ModelLayouts {
		i, l := i, l
		t.Run(l.Name, func(t *testing.T) {
			t.Parallel()
			g := model.Gen{Ops: []model.Op{model.OpFlush, model.OpFlush, model.OpCompact, model.OpReopen, model.OpCrash},
				Steps: 16, Batch: 700, Schema: l.Schema()}
			model.Run(t, l.Schema(), l.Open, g.Cmds(int64(i+1)))
		})
	}
}

// FuzzModel decodes its input into a command list and runs it on a
// layout the input's first byte picks.
func FuzzModel(f *testing.F) {
	f.Add([]byte{0, 3, 11, 2, 200, 4, 9, 5, 250, 1})
	f.Add([]byte{4, 255, 2, 8, 3, 13, 5, 254, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		l := ModelLayouts[int(data[0])%len(ModelLayouts)]
		g := model.Gen{Ops: []model.Op{model.OpFlush, model.OpCompact, model.OpReopen, model.OpCrash},
			Steps: 12, Batch: 300, Schema: l.Schema()}
		model.Run(t, l.Schema(), l.Open, g.Decode(data[1:]))
	})
}
