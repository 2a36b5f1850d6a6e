package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

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
func checkPrefixScan(t *testing.T, sn *Snapshot, seq []string, rows []Row) {
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
			sn.ScanPrefix(p, from, 0, func(idx, pos int, b []byte) bool {
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
				sn.ScanPrefix(p, from, 0, func(idx, pos int, b []byte) bool {
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
				// The same page in the page form: its own bound, and whether
				// more follow.
				got = 0
				more := sn.ScanPrefix(p, from, page, func(idx, pos int, b []byte) bool {
					if idx != from+got || string(b) != seq[pos] {
						t.Fatalf("ScanPrefix(%q,%d,%d): match %d at %d is %q", p, from, page, idx, pos, b)
					}
					got++
					return true
				})
				if want := min(page, count-from); got != want || more != (from+page < count) {
					t.Fatalf("ScanPrefix(%q,%d,%d) holds %d matches, more %v; want %d, %v", p, from, page, got, more, want, from+page < count)
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
		// Two predicates: the match stream's row test, with or without a
		// prefix (one predicate and no prefix is rank arithmetic).
		if got, err := sn.CountWhere(p, append(preds, Pred{Col: 0, Op: PredLE, Val: 500})...); err != nil || got != len(want) {
			t.Fatalf("CountWhere(%q) with two predicates = %d, %v; want %d", p, got, err, len(want))
		}
		for _, from := range []int{0, len(want) / 2, len(want), len(want) + 1} {
			next := from
			_, err := sn.ScanWhere(p, from, 0, preds, func(idx, pos int, b []byte, row Row) bool {
				v := string(b)
				if idx != next || pos != want[idx] || v != seq[pos] || !reflect.DeepEqual(row, rows[pos]) {
					t.Fatalf("ScanWhere(%q,%d) yields (%d,%d,%q,%v), want (%d,%d,%q,%v)", p, from, idx, pos, v, row, next, want[next], seq[want[next]], rows[want[next]])
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

// sameAnswers holds got to want's answer on every op: the summary figures
// and the content fingerprint, Access, Rank, Select and Row at every
// position, and RankPrefix of every prefix at a few cuts.
func sameAnswers(t *testing.T, want, got *Snapshot, prefixes []string) {
	t.Helper()
	type summary struct {
		n, distinct, height, bits int
		fp                        uint64
	}
	sum := func(sn *Snapshot) summary {
		return summary{sn.Len(), sn.AlphabetSize(), sn.Height(), sn.SizeBits(), sn.ContentFingerprint()}
	}
	if w, g := sum(want), sum(got); g != w {
		t.Fatalf("Len, AlphabetSize, Height, SizeBits, ContentFingerprint = %v, want %v", g, w)
	}
	for pos := 0; pos < want.Len(); pos++ {
		v := want.Access(pos)
		r := want.Rank(v, pos)
		if g := got.Access(pos); g != v {
			t.Fatalf("Access(%d) = %q, want %q", pos, g, v)
		}
		if g := got.Rank(v, pos); g != r {
			t.Fatalf("Rank(%q, %d) = %d, want %d", v, pos, g, r)
		}
		if g, ok := got.Select(v, r); !ok || g != pos {
			t.Fatalf("Select(%q, %d) = %d, %v, want %d", v, r, g, ok, pos)
		}
		if g, w := got.Row(pos), want.Row(pos); !reflect.DeepEqual(g, w) {
			t.Fatalf("Row(%d) = %v, want %v", pos, g, w)
		}
	}
	for _, p := range prefixes {
		for _, pos := range []int{0, want.Len() / 3, want.Len()} {
			if g, w := got.RankPrefix(p, pos), want.RankPrefix(p, pos); g != w {
				t.Fatalf("RankPrefix(%q, %d) = %d, want %d", p, pos, g, w)
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
// eight generations and an unflushed tail, with and without columns —
// beside a one-shard store given the same appends and flushes, whose view
// must answer every op as the plain one does — and on a three-shard store
// whose shards each hold generations and a tail.
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
			one, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 1, Store: *opts})
			if err != nil {
				t.Fatal(err)
			}
			defer one.Close()
			for g := 0; g <= gens; g++ {
				lo, hi := g*genLen, min((g+1)*genLen, len(seq))
				var batch []Row
				if rs != nil {
					batch = rs[lo:hi]
				}
				for _, st := range []interface {
					AppendBatchRows(vs []string, rows []Row) error
					Flush() error
				}{s, one} {
					if err := st.AppendBatchRows(seq[lo:hi], batch); err != nil {
						t.Fatal(err)
					}
					if g < gens {
						if err := st.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			sn := s.Snapshot()
			if segs := len(sn.shards[0].segs); segs != gens+1 {
				t.Fatalf("snapshot has %d segments, want %d generations and a tail", segs, gens)
			}
			checkPrefixScan(t, sn, seq, rs)
			checkPrefixScan(t, one.Snapshot(), seq, rs)
			sameAnswers(t, sn, one.Snapshot(), prefixPool(seq))
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

// TestShardedPrefixScanDifferential holds the sharded seek and merge to the
// plain store and to the flat sequence, match for match, where the seek's
// arithmetic has edges: views cut one short of, at and one past a router
// chunk boundary and past a second one, each over generations and a live
// unflushed tail, on 2 shards (all four views) and on 3 and 5 (two each). For a pool of prefixes — all
// values, hot and cold hosts, a path, a whole value, an absent one — and
// from every match index up to the count (a stride through the long
// streams, dense around the chunk boundaries), SelectPrefix, ScanPrefix
// and IteratePrefix pages of 1, 16 and 64 and ScanWhere pages must name
// the oracle's positions and values; from two indexes of the longest view
// the stream is also stopped at every length up to 70 and once run to its
// end. An appender writes to the sharded store throughout: the views are
// pinned.
func TestShardedPrefixScanDifferential(t *testing.T) {
	cuts := []int{routerChunkLen - 1, routerChunkLen, routerChunkLen + 1, 2*routerChunkLen + 1}
	seq, rows := scanTestData(cuts[len(cuts)-1] + 4000)
	schema := []ColumnSpec{{Name: "status", Kind: ColUint64}}
	opts := Options{FlushThreshold: 1 << 20, DisableAutoFlush: true, Columns: schema}
	preds := []Pred{{Col: 0, Op: PredGE, Val: 500}}
	pool := []string{"", "host01", "host03.example/a1", "host2", "host40", seq[5], seq[7][:len(seq[7])-1], "nosuch.example"}
	pages := []int{1, 16, 64}

	plain := mustOpen(t, t.TempDir(), &opts)
	defer plain.Close()
	for _, shards := range []int{2, 3, 5} {
		ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: shards, Store: opts})
		if err != nil {
			t.Fatal(err)
		}
		// Grow both stores to each cut and pin a view there: a flush every
		// 1 500 values, so each view ends in an unflushed tail.
		var plainViews []*Snapshot
		var views []*Snapshot
		at := 0
		for _, cut := range cuts {
			for at < cut {
				hi := min(at+1500, cut)
				if shards == 2 {
					if err := plain.AppendBatchRows(seq[at:hi], rows[at:hi]); err != nil {
						t.Fatal(err)
					}
				}
				if err := ss.AppendBatchRows(seq[at:hi], rows[at:hi]); err != nil {
					t.Fatal(err)
				}
				if at = hi; at < cut {
					if err := ss.Flush(); err != nil {
						t.Fatal(err)
					}
					if shards == 2 {
						if err := plain.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if shards == 2 {
				plainViews = append(plainViews, plain.Snapshot())
			}
			views = append(views, ss.Snapshot())
		}
		// The appender writes a batch each time a check below starts, and
		// flushes now and then: concurrent with the scans, and no faster.
		tick, done := make(chan struct{}, 1), make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				if _, more := <-tick; !more {
					return
				}
				lo := (at + 16*i) % (len(seq) - 16)
				err := ss.AppendBatchRows(seq[lo:lo+16], rows[lo:lo+16])
				if err == nil && i%64 == 63 {
					err = ss.Flush()
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for v, sn := range views {
			if shards > 2 && v%2 == 0 {
				continue // the other two views are enough of the same edges
			}
			n := cuts[v]
			snaps := []*Snapshot{sn}
			if shards == 2 {
				snaps = append(snaps, plainViews[v])
			}
			for _, p := range pool {
				var want, wantErr []int
				for pos, val := range seq[:n] {
					if strings.HasPrefix(val, p) {
						want = append(want, pos)
						if rows[pos][0].U64() >= 500 {
							wantErr = append(wantErr, pos)
						}
					}
				}
				// Every from when the stream is short; else a stride, the froms
				// around each chunk boundary's first match and some whose page
				// of 64 straddles it.
				stride := 1 + len(want)/50
				nearBoundary := func(from int) bool {
					for b := routerChunkLen; b <= n; b += routerChunkLen {
						if i := sort.SearchInts(want, b); from >= i-64 && from <= i+2 && (from >= i-2 || from%9 == 2) {
							return true
						}
					}
					return false
				}
				for _, sn := range snaps {
					if sn.Len() != n || sn.CountPrefix(p) != len(want) {
						t.Fatalf("%d shards, view of %d: Len %d, CountPrefix(%q) = %d, want %d", shards, n, sn.Len(), p, sn.CountPrefix(p), len(want))
					}
					page := func(what string, want []int, from, stop int, scan func(fn func(idx, pos int, v []byte) bool)) {
						t.Helper()
						got := 0
						scan(func(idx, pos int, v []byte) bool {
							if idx != from+got || idx >= len(want) || pos != want[idx] || (v != nil && string(v) != seq[pos]) {
								t.Fatalf("%d shards, view of %d: %s(%q, %d) match %d is (%d, %d, %q); the sequence has %q", shards, n, what, p, from, got, idx, pos, v, seq[pos])
							}
							got++
							return got != stop
						})
						if end := max(0, len(want)-from); got != min(end, stop) && !(stop <= 0 && got == end) {
							t.Fatalf("%d shards, view of %d: %s(%q, %d) stopped after %d matches, want %d of %d", shards, n, what, p, from, got, stop, end)
						}
					}
					scanPrefix := func(from int) func(fn func(idx, pos int, v []byte) bool) {
						return func(fn func(idx, pos int, v []byte) bool) { sn.ScanPrefix(p, from, 0, fn) }
					}
					// The page form, bounded by the page itself: more says
					// whether the bound cut the stream.
					scanPage := func(what string, want []int, from, stop int, scan func(max int, fn func(idx, pos int, v []byte) bool) bool) {
						t.Helper()
						more := false
						page(what, want, from, stop, func(fn func(idx, pos int, v []byte) bool) { more = scan(stop, fn) })
						if end := max(0, len(want)-from); stop > 0 && more != (end > stop) {
							t.Fatalf("%d shards, view of %d: %s(%q, %d, %d) reports more %v with %d matches left", shards, n, what, p, from, stop, more, end)
						}
					}
					for from := 0; from <= len(want)+1; from++ {
						if from%stride != 0 && from < len(want)-1 && !nearBoundary(from) {
							continue
						}
						select {
						case tick <- struct{}{}:
						default:
						}
						if pos, ok := sn.SelectPrefix(p, from); ok != (from < len(want)) || (ok && pos != want[from]) {
							t.Fatalf("%d shards, view of %d: SelectPrefix(%q, %d) = %d, %v", shards, n, p, from, pos, ok)
						}
						stop := pages[from%len(pages)]
						page("ScanPrefix", want, from, stop, scanPrefix(from))
						scanPage("ScanPrefix", want, from, stop, func(max int, fn func(idx, pos int, v []byte) bool) bool {
							return sn.ScanPrefix(p, from, max, fn)
						})
						page("IteratePrefix", want, from, stop, func(fn func(idx, pos int, v []byte) bool) {
							sn.IteratePrefix(p, from, func(idx, pos int) bool { return fn(idx, pos, nil) })
						})
						if from <= len(wantErr)+1 {
							where := func(max int, fn func(idx, pos int, v []byte) bool) bool {
								more, err := sn.ScanWhere(p, from, max, preds, func(idx, pos int, v []byte, row Row) bool {
									if !reflect.DeepEqual(row, rows[pos]) {
										t.Fatalf("%d shards, view of %d: ScanWhere(%q, %d, %d) match at %d has row %v, want %v", shards, n, p, from, max, pos, row, rows[pos])
									}
									return fn(idx, pos, v)
								})
								if err != nil {
									t.Fatal(err)
								}
								return more
							}
							page("ScanWhere", wantErr, from, stop, func(fn func(idx, pos int, v []byte) bool) { where(0, fn) })
							scanPage("ScanWhere", wantErr, from, stop, where)
						}
					}
					if v < len(views)-1 {
						continue
					}
					for _, from := range []int{len(want) / 3, max(0, len(want)-40)} {
						for stop := 1; stop <= 70; stop++ {
							page("ScanPrefix", want, from, stop, scanPrefix(from))
						}
						page("ScanPrefix", want, from, -1, scanPrefix(from))
					}
				}
			}
		}
		close(tick)
		<-done
		ss.Close()
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
	sn.ScanPrefix("v/", 0, 0, func(idx, pos int, b []byte) bool {
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
