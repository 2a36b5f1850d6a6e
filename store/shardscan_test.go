package store

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// seamCounts is what a query moved across the segment seam.
type seamCounts struct {
	pulled   int // matches a cursor's next returned
	admitted int // those of them the query's predicates admit
	decoded  int // values asked of a cursor
}

// countingSeg wraps a segment of a snapshot under test: every call that
// walks the segment's trie from its root is a descent, and the cursors it
// hands out report into tot.
type countingSeg struct {
	segment
	descents int
	tot      *seamCounts
	admit    func(pos int) bool // nil admits every position
}

func (c *countingSeg) rank(k *probe, pos int) int {
	c.descents++
	return c.segment.rank(k, pos)
}

func (c *countingSeg) sel(k *probe, idx int) (int, bool) {
	c.descents++
	return c.segment.sel(k, idx)
}

func (c *countingSeg) cursor(k *probe) matchCursor {
	c.descents++
	return &countingCursor{c.segment.cursor(k), c}
}

type countingCursor struct {
	matchCursor
	seg *countingSeg
}

func (c *countingCursor) next() (int, bool) {
	pos, ok := c.matchCursor.next()
	if ok {
		c.seg.tot.pulled++
		if c.seg.admit == nil || c.seg.admit(pos) {
			c.seg.tot.admitted++
		}
	}
	return pos, ok
}

func (c *countingCursor) value(dst []byte) []byte {
	c.seg.tot.decoded++
	return c.matchCursor.value(dst)
}

// countSegs returns a copy of sn whose every segment counts into tot, and
// the wrappers. With errorsOnly the wrappers admit the positions whose
// status cell (column 0) is at least 500.
func countSegs(sn *Snapshot, errorsOnly bool, tot *seamCounts) (*Snapshot, []*countingSeg) {
	wrapped := make([]snapSeg, len(sn.segs))
	segs := make([]*countingSeg, len(sn.segs))
	for i, seg := range sn.segs {
		cs := &countingSeg{segment: seg.segment, tot: tot}
		if cols := seg.cols; errorsOnly {
			cs.admit = func(pos int) bool { return cols.colValue(0, pos).U64() >= 500 }
		}
		wrapped[i] = snapSeg{segment: cs, cols: seg.cols}
		segs[i] = cs
	}
	out := newSnapshot(wrapped)
	out.schema = sn.schema
	return out, segs
}

// countSeam is countSegs over every shard of sn.
func countSeam(sn *ShardedSnapshot, errorsOnly bool) (*ShardedSnapshot, []*countingSeg, *seamCounts) {
	out, tot := *sn, &seamCounts{}
	out.shards = make([]*Snapshot, len(sn.shards))
	var segs []*countingSeg
	for s, sh := range sn.shards {
		var counted []*countingSeg
		out.shards[s], counted = countSegs(sh, errorsOnly, tot)
		segs = append(segs, counted...)
	}
	return &out, segs, tot
}

// scanView is the prefix surface the plain and the sharded views share.
type scanView interface {
	CountPrefix(p string) int
	CountWhere(prefix string, preds ...Pred) (int, error)
	SelectPrefix(p string, idx int) (int, bool)
	IteratePrefix(p string, from int, fn func(idx, pos int) bool)
	ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool)
	ScanWhere(prefix string, from int, preds []Pred, fn func(idx, pos int, v []byte) bool) error
}

// TestShardedScanPullsOnlyWhatItEmits holds the prefix scans to what a page
// is worth: on a plain store and over 1, 2, 3 and 5 shards, for pages of 1,
// 16 and 64 matches from the first, a middle and a late match, with and
// without a predicate, the cursors hand over at most one match per match
// emitted or merged past — and, sharded, one head per shard — a value is
// decoded exactly when fn is handed one, and no (shard, generation) is
// descended more than twice — once, label-only, for its count when the seek
// passes over it, once for its cursor.
func TestShardedScanPullsOnlyWhatItEmits(t *testing.T) {
	const maxDescents = 2
	seq, rows := scanTestData(3*routerChunkLen + 700)
	preds := []Pred{{Col: 0, Op: PredGE, Val: 500}}
	prefix := "host01"
	opts := Options{FlushThreshold: 1 << 20, DisableAutoFlush: true, Columns: []ColumnSpec{{Name: "status", Kind: ColUint64}}}
	for _, shards := range []int{0, 1, 2, 3, 5} { // 0: a plain store
		arm := fmt.Sprintf("%d shards", shards)
		var st interface {
			AppendBatchRows(vs []string, rows []Row) error
			Flush() error
			Close() error
		}
		var counted func(errorsOnly bool) (scanView, []*countingSeg, *seamCounts)
		if shards == 0 {
			arm = "plain"
			s, err := Open(t.TempDir(), &opts)
			if err != nil {
				t.Fatal(err)
			}
			st = s
			counted = func(errorsOnly bool) (scanView, []*countingSeg, *seamCounts) {
				tot := &seamCounts{}
				sn, segs := countSegs(s.Snapshot(), errorsOnly, tot)
				return sn, segs, tot
			}
		} else {
			ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: shards, Store: opts})
			if err != nil {
				t.Fatal(err)
			}
			st = ss
			counted = func(errorsOnly bool) (scanView, []*countingSeg, *seamCounts) {
				return countSeam(ss.Snapshot(), errorsOnly)
			}
		}
		// Three generations a shard and a live tail.
		for lo := 0; lo < len(seq); lo += 4000 {
			hi := min(lo+4000, len(seq))
			if err := st.AppendBatchRows(seq[lo:hi], rows[lo:hi]); err != nil {
				t.Fatal(err)
			}
			if hi < len(seq) {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		base, _, _ := counted(false)
		count := base.CountPrefix(prefix)
		errs, err := base.CountWhere(prefix, preds...)
		if err != nil || errs < 40 || count < 400 {
			t.Fatalf("%s: %d matches of %q, %d of them errors (%v): too few to page through", arm, count, prefix, errs, err)
		}
		check := func(name string, merged, emitted int, wantDecoded bool, segs []*countingSeg, tot *seamCounts) {
			t.Helper()
			if tot.admitted > merged+shards {
				t.Errorf("%s, %s: %d matches pulled past the filter for %d merged, want at most %d more", arm, name, tot.admitted, merged, shards)
			}
			if !wantDecoded {
				emitted = 0
			}
			if tot.decoded != emitted {
				t.Errorf("%s, %s: %d values decoded, want %d", arm, name, tot.decoded, emitted)
			}
			for i, seg := range segs {
				if seg.descents > maxDescents {
					t.Errorf("%s, %s: segment %d descended %d times, want at most %d", arm, name, i, seg.descents, maxDescents)
				}
			}
		}
		for _, page := range []int{1, 16, 64} {
			for _, from := range []int{0, count / 2, count - page/2 - 1} {
				name := fmt.Sprintf("page %d from %d", page, from)
				want := min(page, count-from)
				for _, vals := range []bool{true, false} {
					sn, segs, tot := counted(false)
					got := 0
					each := func() bool { got++; return got < page }
					if vals {
						sn.ScanPrefix(prefix, from, func(_, _ int, _ []byte) bool { return each() })
					} else {
						sn.IteratePrefix(prefix, from, func(_, _ int) bool { return each() })
					}
					if got != want || tot.pulled != tot.admitted {
						t.Fatalf("%s, %s: %d matches emitted, want %d; %d pulled, %d admitted", arm, name, got, want, tot.pulled, tot.admitted)
					}
					check(name, got, got, vals, segs, tot)
				}
				sn, segs, tot := counted(false)
				if pos, ok := sn.SelectPrefix(prefix, from); !ok || seq[pos][:len(prefix)] != prefix {
					t.Fatalf("%s: SelectPrefix(%q, %d) = %d, %v", arm, prefix, from, pos, ok)
				}
				check("select "+name, 1, 0, true, segs, tot)

				// The same page of the prefix's errors: the survivors before
				// from are merged past, undecoded.
				from := from * errs / count
				want = min(page, errs-from)
				sn, segs, tot = counted(true)
				got := 0
				if err := sn.ScanWhere(prefix, from, preds, func(_, _ int, _ []byte) bool { got++; return got < page }); err != nil || got != want {
					t.Fatalf("%s, where %s: %d matches emitted, %v; want %d", arm, name, got, err, want)
				}
				if tot.pulled < 5*tot.admitted {
					t.Fatalf("%s, where %s: %d pulled, %d admitted: the filter is not filtering", arm, name, tot.pulled, tot.admitted)
				}
				check("where "+name, from+got, got, true, segs, tot)
			}
		}
		st.Close()
	}
}

// TestSeekCutProbes runs the seek's search over match layouts an even
// spread does not describe — a cluster at either end, spacing that doubles
// or grows quadratically, a few bursts, every position, one match — for
// every from: the cut is exact, and the probes stay near bisection's 12
// where interpolation alone would crawl a match a probe.
func TestSeekCutProbes(t *testing.T) {
	const n = 1 << 12
	layouts := map[string][]int{"one": {n / 3}, "doubling": {0}}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		layouts["all"] = append(layouts["all"], i)
		if i < 100 {
			layouts["head"] = append(layouts["head"], i)
			layouts["tail"] = append(layouts["tail"], n-100+i)
		}
		if i*i < n {
			layouts["square"] = append(layouts["square"], i*i)
		}
		if i%1000 < 40 && rng.Intn(2) == 0 {
			layouts["bursts"] = append(layouts["bursts"], i)
		}
	}
	for d := 1; d < n; d *= 2 {
		layouts["doubling"] = append(layouts["doubling"], d)
	}
	for name, ps := range layouts {
		worst := 0
		for from := range ps {
			probes := 0
			cut := seekCut(n, len(ps), from, func(pos int) int {
				probes++
				return sort.SearchInts(ps, pos)
			})
			if got := sort.SearchInts(ps, cut); got != from {
				t.Fatalf("%s: the cut for match %d is %d, with %d matches before it", name, from, cut, got)
			}
			worst = max(worst, probes)
		}
		t.Logf("%-8s %4d matches: at most %d probes", name, len(ps), worst)
		if worst > 24 {
			t.Errorf("%s: %d probes for one cut, want at most 24 (bisection takes 12)", name, worst)
		}
	}
}

// The working loop for the sharded prefix merge: one served ScanPrefix page
// and one SelectPrefix, on 2 shards × 4 generations, each beside the same
// requests on a plain store of 4 generations — the cost the sharded form
// adds is the ratio of the two arms.

const shardScanLen, shardScanGens, shardScanPage = 1 << 16, 4, 64

type prefixReq struct {
	p    string
	from int
}

// shardScanStores loads the same 65 536 URL-log values into a plain store
// and a 2-shard store, flushed in four equal parts, and draws requests the
// way the benchmark's scanprefix class does: one of the 64 hottest host
// prefixes, from a uniform match index.
func shardScanStores(b *testing.B) (*Snapshot, *ShardedSnapshot, []prefixReq) {
	seq := workload.URLLog(shardScanLen, 1, workload.DefaultURLConfig())
	opts := Options{FlushThreshold: 1 << 20, DisableAutoFlush: true}
	plain, err := Open(b.TempDir(), &opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { plain.Close() })
	sharded, err := OpenSharded(b.TempDir(), &ShardedOptions{Shards: 2, Store: opts})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sharded.Close() })
	for g := 0; g < shardScanGens; g++ {
		part := seq[g*shardScanLen/shardScanGens : (g+1)*shardScanLen/shardScanGens]
		for _, st := range []interface {
			AppendBatch([]string) error
			Flush() error
		}{plain, sharded} {
			if err := st.AppendBatch(part); err != nil {
				b.Fatal(err)
			}
			if err := st.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
	count := map[string]int{}
	for _, v := range seq {
		host, _, _ := strings.Cut(v, "/")
		count[host]++
	}
	hosts := make([]string, 0, len(count))
	for h := range count {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool {
		if ci, cj := count[hosts[i]], count[hosts[j]]; ci != cj {
			return ci > cj
		}
		return hosts[i] < hosts[j]
	})
	hosts = hosts[:min(64, len(hosts))]
	rng := rand.New(rand.NewSource(1))
	reqs := make([]prefixReq, 1<<10)
	for i := range reqs {
		p := hosts[rng.Intn(len(hosts))]
		reqs[i] = prefixReq{p, rng.Intn(count[p])}
	}
	return plain.Snapshot(), sharded.Snapshot(), reqs
}

var shardScanSink int

func BenchmarkShardedScanPrefixPage(b *testing.B) {
	plain, sharded, reqs := shardScanStores(b)
	for _, arm := range []struct {
		name string
		scan func(p string, from int, fn func(idx, pos int, v []byte) bool)
	}{{"sharded", sharded.ScanPrefix}, {"plain", plain.ScanPrefix}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, got := reqs[i%len(reqs)], 0
				arm.scan(r.p, r.from, func(_, pos int, v []byte) bool {
					shardScanSink += pos + len(v)
					got++
					return got < shardScanPage
				})
			}
		})
	}
}

func BenchmarkShardedSelectPrefix(b *testing.B) {
	plain, sharded, reqs := shardScanStores(b)
	for _, arm := range []struct {
		name string
		sel  func(p string, idx int) (int, bool)
	}{{"sharded", sharded.SelectPrefix}, {"plain", plain.SelectPrefix}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				pos, ok := arm.sel(r.p, r.from)
				if !ok {
					b.Fatalf("SelectPrefix(%q, %d) found nothing", r.p, r.from)
				}
				shardScanSink += pos
			}
		})
	}
}
