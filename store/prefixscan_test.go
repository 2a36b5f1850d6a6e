package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// scanSnap is the prefix-enumeration surface Snapshot and ShardedSnapshot
// share, together with the per-match operations it is checked against.
type scanSnap interface {
	Len() int
	Access(pos int) string
	CountPrefix(p string) int
	SelectPrefix(p string, idx int) (int, bool)
	IteratePrefix(p string, from int, fn func(idx, pos int) bool)
	ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool)
	CountWhere(prefix string, preds ...Pred) (int, error)
	IterateWhere(prefix string, from int, preds []Pred, fn func(idx, pos int) bool) error
	ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error
}

// prefixPool derives the prefixes a URL log is scanned by: every host,
// every host/segment path, the empty prefix, an absent one, a whole
// value and a cut in the middle of one.
func prefixPool(seq []string) []string {
	set := map[string]bool{"": true, "nosuch.example": true, seq[0]: true, seq[1][:len(seq[1])/2]: true}
	for _, v := range seq {
		if i := strings.IndexByte(v, '/'); i > 0 {
			set[v[:i]] = true
			if j := strings.IndexByte(v[i+1:], '/'); j > 0 {
				set[v[:i+1+j]] = true
			}
		}
	}
	pool := make([]string, 0, len(set))
	for p := range set {
		pool = append(pool, p)
	}
	sort.Strings(pool)
	return pool
}

// checkPrefixScan compares the streaming prefix cursor with the flat
// sequence and with the per-match form it replaced — SelectPrefix for a
// position, Access for its value — for every pool prefix, from the first,
// a middle, the last, the one-past-the-last and a later match index; then
// pages through each stream with early stops and stateless resumes, whose
// page boundaries fall inside and between segments and shards.
func checkPrefixScan(t *testing.T, sn scanSnap, seq []string, rows []Row) {
	t.Helper()
	if sn.Len() != len(seq) {
		t.Fatalf("Len = %d, want %d", sn.Len(), len(seq))
	}
	preds := []Pred{{Col: 0, Op: PredGE, Val: 500}}
	for _, p := range prefixPool(seq) {
		count := sn.CountPrefix(p)
		for _, from := range []int{0, count / 2, count - 1, count, count + 1} {
			if from < 0 {
				continue
			}
			next := from
			sn.ScanPrefix(p, from, func(idx, pos int, b []byte) bool {
				v := string(b)
				if idx != next || v != seq[pos] || !strings.HasPrefix(v, p) {
					t.Fatalf("ScanPrefix(%q,%d) yields (%d,%d,%q) as match %d; the sequence has %q there", p, from, idx, pos, v, next, seq[pos])
				}
				// The per-match form, on the head of a run and a sample of the
				// rest (a sharded SelectPrefix is a search).
				if next < from+8 || next%32 == 0 {
					if want, ok := sn.SelectPrefix(p, next); !ok || pos != want || v != sn.Access(want) {
						t.Fatalf("ScanPrefix(%q,%d) match %d at %d is %q; SelectPrefix says %d,%v", p, from, idx, pos, v, want, ok)
					}
				}
				next++
				return true
			})
			if want := max(from, count); next != want {
				t.Fatalf("ScanPrefix(%q,%d) ended at match %d, want %d", p, from, next, want)
			}
			next = from
			prev := -1
			sn.IteratePrefix(p, from, func(idx, pos int) bool {
				if idx != next || pos <= prev || !strings.HasPrefix(seq[pos], p) {
					t.Fatalf("IteratePrefix(%q,%d) yields (%d,%d) as match %d after position %d", p, from, idx, pos, next, prev)
				}
				next, prev = next+1, pos
				return true
			})
			if want := max(from, count); next != want {
				t.Fatalf("IteratePrefix(%q,%d) ended at match %d, want %d", p, from, next, want)
			}
		}
		// Stop after a page, resume at the echoed index.
		for _, page := range []int{1, 7, 64} {
			if count > 12*page {
				continue // the long streams are covered by the longer pages
			}
			for from := 0; from <= count; {
				got := 0
				sn.ScanPrefix(p, from, func(idx, pos int, b []byte) bool {
					v := string(b)
					if idx != from+got || v != seq[pos] || !strings.HasPrefix(v, p) {
						t.Fatalf("ScanPrefix(%q,%d) page of %d: match %d at %d is %q", p, from, page, idx, pos, v)
					}
					got++
					return got < page
				})
				if want := min(page, count-from); got != want {
					t.Fatalf("ScanPrefix(%q,%d) page of %d holds %d matches, want %d", p, from, page, got, want)
				}
				from += page
			}
		}
		if rows == nil {
			continue
		}
		// Prefix ∩ predicate: the oracle is a scan of the flat sequence.
		var want []int
		for pos, v := range seq {
			if strings.HasPrefix(v, p) && rows[pos][0].U64() >= 500 {
				want = append(want, pos)
			}
		}
		if got, err := sn.CountWhere(p, preds...); err != nil || got != len(want) {
			t.Fatalf("CountWhere(%q) = %d, %v; want %d", p, got, err, len(want))
		}
		for _, from := range []int{0, len(want) / 2, len(want), len(want) + 1} {
			next := from
			err := sn.ScanWhere(p, from, preds, func(idx, pos int, b []byte) bool {
				v := string(b)
				if idx != next || pos != want[idx] || v != seq[pos] {
					t.Fatalf("ScanWhere(%q,%d) yields (%d,%d,%q), want (%d,%d,%q)", p, from, idx, pos, v, next, want[next], seq[want[next]])
				}
				next++
				return true
			})
			if err != nil || next != max(from, len(want)) {
				t.Fatalf("ScanWhere(%q,%d) ended at match %d, %v; want %d", p, from, next, err, len(want))
			}
			next = from
			err = sn.IterateWhere(p, from, preds, func(idx, pos int) bool {
				if idx != next || pos != want[idx] {
					t.Fatalf("IterateWhere(%q,%d) yields (%d,%d), want (%d,%d)", p, from, idx, pos, next, want[next])
				}
				next++
				return next < from+3 // early stop
			})
			if wantEnd := min(max(from, len(want)), from+3); err != nil || next != wantEnd {
				t.Fatalf("IterateWhere(%q,%d) stopped at match %d, %v; want %d", p, from, next, err, wantEnd)
			}
		}
	}
}

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

// TestPrefixScanDifferential runs the comparison on a plain store of
// eight generations and an unflushed tail, with and without columns, and
// on a three-shard store whose shards each hold generations and a tail.
func TestPrefixScanDifferential(t *testing.T) {
	const gens, genLen, tail = 8, 420, 130
	seq, rows := scanTestData(gens*genLen + tail)
	schema := []ColumnSpec{{Name: "status", Kind: ColUint64}}
	for _, columns := range []bool{false, true} {
		t.Run(fmt.Sprintf("plain/columns=%v", columns), func(t *testing.T) {
			opts, rs := testOpts(), rows
			if columns {
				opts.Columns = schema
			} else {
				rs = nil
			}
			s := mustOpen(t, t.TempDir(), opts)
			defer s.Close()
			for g := 0; g <= gens; g++ {
				lo, hi := g*genLen, min((g+1)*genLen, len(seq))
				var batch []Row
				if rs != nil {
					batch = rs[lo:hi]
				}
				if err := s.AppendBatchRows(seq[lo:hi], batch); err != nil {
					t.Fatal(err)
				}
				if g < gens {
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			sn := s.Snapshot()
			if sn.Generations() != gens+1 {
				t.Fatalf("snapshot has %d segments, want %d generations and a tail", sn.Generations(), gens)
			}
			checkPrefixScan(t, sn, seq, rs)
		})
	}
	t.Run("sharded", func(t *testing.T) {
		ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 3,
			Store: Options{FlushThreshold: 1 << 20, DisableAutoFlush: true, Columns: schema}})
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		// A third of the data: the router keeps a store this small wholly
		// in its tail region, where every rank is a scan of atomic slots —
		// cheap, except under the race detector.
		seq, rows := seq[:len(seq)/3], rows[:len(rows)/3]
		for lo := 0; lo < len(seq); lo += 97 {
			hi := min(lo+97, len(seq))
			if err := ss.AppendBatchRows(seq[lo:hi], rows[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if lo%(5*97) == 4*97 && hi < len(seq)-200 {
				if err := ss.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkPrefixScan(t, ss.Snapshot(), seq, rows)
	})
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
	sn.ScanPrefix("v/", 0, func(idx, pos int, b []byte) bool {
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
