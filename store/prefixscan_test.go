package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// scanTestData is a URL log with one status cell per row, a twentieth of
// them errors — the shape the benchmark's ScanWhere pages filter.
func scanTestData(n int) ([]string, []Row) {
	seq := workload.URLLog(n, 11, workload.DefaultURLConfig())
	r := rand.New(rand.NewSource(12))
	rows := make([]Row, n)
	for i := range rows {
		status := uint64(200)
		if r.Intn(20) == 0 {
			status = 500
		}
		rows[i] = Row{U64(status)}
	}
	return seq, rows
}

// scanModelData is scanTestData as the model's commands append it: the
// status in the first cell of the model schema's rows.
func scanModelData(n int) ([]string, []model.Row) {
	seq, rows := scanTestData(n)
	mrows := make([]model.Row, n)
	for i, row := range rows {
		mrows[i] = model.Row{{Kind: model.KindU64, Num: row[0].U64()}, {}}
	}
	return seq, mrows
}

// TestPrefixScanDifferential holds stores of eight generations and an
// unflushed tail to the model — a plain one with and without columns,
// beside a one-shard store given the same commands, which must answer
// every op as the plain one does and cost what its shard does — and a
// three-shard store whose shards each hold generations and a tail.
func TestPrefixScanDifferential(t *testing.T) {
	const gens, genLen, tail = 8, 420, 130
	seq, rows := scanModelData(gens*genLen + tail)
	var cuts []int
	for g := 1; g <= gens; g++ {
		cuts = append(cuts, g*genLen)
	}
	for _, tc := range []struct {
		name    string
		layouts []ModelLayout
		n       int
		cuts    []int
	}{
		{"plain/columns=false", []ModelLayout{{Name: "flat"}, {Name: "shards=1", Shards: 1}}, len(seq), cuts},
		{"plain/columns=true", []ModelLayout{{Name: "columnar", Cols: true}, {Name: "shards=1", Shards: 1, Cols: true}}, len(seq), cuts},
		// A third of the data: the router keeps a store this small wholly
		// in its tail region, where every rank is a scan of atomic slots.
		{"sharded", []ModelLayout{{Name: "shards=3", Shards: 3, Cols: true}}, len(seq) / 3, []int{485, 970}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range tc.layouts {
				sys, m := l.Open(t), model.New(l.Schema()...)
				defer sys.Close()
				var r []model.Row
				if l.Cols {
					r = rows[:tc.n]
				}
				model.Apply(t, sys, m, model.Flushed(seq[:tc.n], r, tc.cuts...)...)
				if segs := len(sys.(*modelStore).s.Snapshot().shards[0].segs); l.Shards < 2 && segs != gens+1 {
					t.Fatalf("%s: snapshot has %d segments, want %d generations and a tail", l.Name, segs, gens)
				}
				if err := sys.Check(m); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShardedPrefixScanDifferential holds the sharded seek and merge to the
// model where the seek's arithmetic has edges: views cut one short of, at
// and one past a router chunk boundary and past a second one, each over
// generations and a live unflushed tail, on 2, 3 and 5 shards, and a plain
// store's views at the same cuts. An appender writes to the sharded store
// while the views are checked: they are pinned.
func TestShardedPrefixScanDifferential(t *testing.T) {
	cuts := []int{routerChunkLen - 1, routerChunkLen, routerChunkLen + 1, 2*routerChunkLen + 1}
	seq, rows := scanModelData(cuts[len(cuts)-1] + 4000)
	for _, l := range []ModelLayout{{Name: "flat", Cols: true}, {Shards: 2, Cols: true}, {Shards: 3, Cols: true}, {Shards: 5, Cols: true}} {
		sys, m := l.Open(t), model.New(l.Schema()...)
		s := sys.(*modelStore).s
		// Grow the store to each cut and pin a view there: a flush every
		// 1 500 values, so each view ends in an unflushed tail.
		var views []*Snapshot
		for _, cut := range cuts {
			var cmds []model.Cmd
			for lo := m.Len(); lo < cut; lo += 1500 {
				if lo > m.Len() {
					cmds = append(cmds, model.Cmd{Op: model.OpFlush})
				}
				hi := min(lo+1500, cut)
				cmds = append(cmds, model.Cmd{Op: model.OpBatch, Vals: seq[lo:hi], Rows: rows[lo:hi]})
			}
			model.Apply(t, sys, m, cmds...)
			views = append(views, s.Snapshot())
		}
		// The appender writes a batch and now and then a flush, concurrent
		// with the checks.
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := 16 * i % (len(seq) - 16)
				err := s.AppendBatchRows(seq[lo:lo+16], StoreRows(rows[lo:lo+16]))
				if err == nil && i%64 == 63 {
					err = s.Flush()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for v, sn := range views {
			if l.Shards > 2 && v%2 == 0 {
				continue // the other two views are enough of the same edges
			}
			if err := m.Prefix(cuts[v]).Diff(snapReader{sn}); err != nil {
				t.Errorf("%d shards, view of %d: %v", l.Shards, cuts[v], err)
			}
		}
		close(stop)
		<-done
		sys.Close()
	}
}

// TestPrefixScanCallbackMayRead: scan callbacks and the value they call
// run with no lock held, so reading the snapshot from inside one while an
// appender hammers the live memtable must make progress (a nested RLock
// behind a waiting writer would deadlock).
func TestPrefixScanCallbackMayRead(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	const n = 600
	for i := 0; i < n; i++ {
		mustAppend(t, s, fmt.Sprintf("v/%05d", i))
	}
	sn := s.Snapshot()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Append(fmt.Sprintf("v/w%05d", i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	count := 0
	sn.ScanPrefix("v/", 0, n+1, func(idx, pos int, b []byte) bool {
		v := string(b)
		if got := sn.Access(pos); got != v || idx != pos {
			t.Errorf("match %d at %d is %q, Access says %q", idx, pos, v, got)
			return false
		}
		count++
		return true
	})
	close(stop)
	<-done
	if count != n {
		t.Fatalf("scanned %d of %d: appends after the snapshot leaked in or matches were lost", count, n)
	}
}
