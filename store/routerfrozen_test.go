package store

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// routerModel is the plain-slice oracle for the router: shard id per
// global position.
type routerModel []int

// routerIndex is a routerModel's per-shard position lists, ascending:
// rank is a binary search in one, select an index into it.
type routerIndex [][]int

func (m routerModel) index(shards int) routerIndex {
	x := make(routerIndex, shards)
	for g, s := range m {
		x[s] = append(x[s], g)
	}
	return x
}

func (x routerIndex) rank(shard, pos int) int { return sort.SearchInts(x[shard], pos) }

func (x routerIndex) selectShard(shard, idx int) int { return x[shard][idx] }

// checkRouter diffs every router read primitive against the model at
// sampled positions, always including the frozen/tail boundary.
func checkRouter(t *testing.T, r *router, m routerModel, rng *rand.Rand) {
	t.Helper()
	w := int(r.watermark.Load())
	if w == 0 {
		return
	}
	x := m.index(r.shards)
	boundary := len(r.view.Load().frozen) << routerChunkShift
	probes := []int{0, w - 1, boundary - 1, boundary, boundary + 1, w / 2}
	for i := 0; i < 8; i++ {
		probes = append(probes, rng.Intn(w))
	}
	for _, g := range probes {
		if g < 0 || g >= w {
			continue
		}
		if got, want := r.at(uint64(g)), m[g]; got != want {
			t.Fatalf("w=%d: at(%d) = %d, want %d", w, g, got, want)
		}
		s, local := r.locate(uint64(g))
		if wantLocal := x.rank(m[g], g); s != m[g] || local != wantLocal {
			t.Fatalf("w=%d: locate(%d) = (%d,%d), want (%d,%d)", w, g, s, local, m[g], wantLocal)
		}
	}
	// Rank cuts include pos == w and chunk-boundary straddles.
	for _, pos := range append(probes, boundary, w) {
		if pos < 0 || pos > w {
			continue
		}
		for shard := 0; shard < r.shards; shard++ {
			if got, want := r.rank(shard, uint64(pos)), x.rank(shard, pos); got != want {
				t.Fatalf("w=%d: rank(%d,%d) = %d, want %d", w, shard, pos, got, want)
			}
		}
	}
	for shard := 0; shard < r.shards; shard++ {
		total := x.rank(shard, w)
		for _, idx := range []int{0, 1, total / 2, total - 1, rng.Intn(total + 1)} {
			if idx < 0 || idx >= total {
				continue
			}
			if got, want := r.selectShard(shard, idx), x.selectShard(shard, idx); got != want {
				t.Fatalf("w=%d: selectShard(%d,%d) = %d, want %d", w, shard, idx, got, want)
			}
		}
	}
}

// TestRouterFrozenDifferential pits the frozen-prefix router against the
// plain shard-id slice across randomized fill orders and query points:
// fills arrive out of order inside a sliding window (stalling the
// watermark like in-flight appends do), chunks freeze as the watermark
// passes their boundary, and every primitive is probed at boundary
// straddles after each window. 256 shards is the widest matrix a chunk
// takes: 8 planes.
func TestRouterFrozenDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8, 256} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			const n = 3*routerChunkLen + 1500
			m := make(routerModel, n)
			for g := range m {
				m[g] = rng.Intn(shards)
			}
			r := newRouter(shards)
			for g := 0; g < n; {
				win := min(1+rng.Intn(64), n-g)
				order := rng.Perm(win)
				for _, off := range order {
					r.fill(uint64(g+off), m[g+off])
				}
				g += win
				if rng.Intn(4) == 0 {
					checkRouter(t, r, m, rng)
				}
			}
			if got := int(r.watermark.Load()); got != n {
				t.Fatalf("watermark = %d, want %d", got, n)
			}
			checkRouter(t, r, m, rng)

			// Every fully-sealed chunk froze, its uint32 slab was released,
			// and the reported footprint reflects the succinct encoding.
			v := r.view.Load()
			if want := n >> routerChunkShift; len(v.frozen) != want {
				t.Fatalf("frozen chunks = %d, want %d", len(v.frozen), want)
			}
			for i := range v.frozen {
				if v.chunks[i] != nil {
					t.Fatalf("chunk %d frozen but slab not released", i)
				}
			}
			ri := r.info()
			if ri.FrozenChunks != len(v.frozen) || ri.TailChunks != 1 || ri.Elems != n {
				t.Fatalf("info = %+v", ri)
			}
			if naive := (len(v.chunks)*routerChunkLen + len(v.cum)*r.shards) * 32; ri.Bits >= naive {
				t.Fatalf("sizeBits = %d, not below naive %d", ri.Bits, naive)
			}
			// The frozen region itself must be far below 32 bits/element —
			// that is the point of freezing (the live tail chunk still pays
			// full slab price until it seals): ⌈log₂ shards⌉ planes and
			// their rank directories.
			width := bits.Len(uint(shards - 1))
			if perElem := float64(ri.FrozenBits) / float64(ri.FrozenChunks*routerChunkLen); perElem > float64(width)+1 {
				t.Fatalf("frozen region at %.2f bits/elem, want <= %d", perElem, width+1)
			}

			// A reopened router (bulkLoad) answers identically too.
			r2 := newRouter(shards)
			ids := make([]byte, n)
			for g, s := range m {
				ids[g] = byte(s)
			}
			r2.bulkLoad(ids)
			checkRouter(t, r2, m, rng)
			if got, want := len(r2.view.Load().frozen), n>>routerChunkShift; got != want {
				t.Fatalf("bulkLoad frozen chunks = %d, want %d", got, want)
			}
		})
	}
}

// TestRouterFreezeRaceStress hammers the router with concurrent fillers
// (driving seals and slab releases) while readers probe every primitive
// below their loaded watermark — the region that must stay immutable
// through freezing. Run under -race this checks the single-pointer view
// publication; the invariant checks catch torn frozen/tail dispatch.
func TestRouterFreezeRaceStress(t *testing.T) {
	const (
		shards  = 4
		n       = 3*routerChunkLen + 1000
		writers = 4
	)
	r := newRouter(shards)
	var next atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				g := next.Add(1) - 1
				if g >= n {
					return
				}
				r.fill(g, int(g%shards))
			}
		}()
	}
	for reader := 0; reader < 2; reader++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				w := r.watermark.Load()
				if w == 0 {
					continue
				}
				g := uint64(rng.Intn(int(w)))
				s, local := r.locate(g)
				// Positions are assigned round-robin, so the shard is known.
				if s != int(g%shards) {
					t.Errorf("locate(%d) shard = %d, want %d", g, s, g%shards)
					return
				}
				if at := r.at(g); at != s {
					t.Errorf("at(%d) = %d, locate said %d", g, at, s)
					return
				}
				if rk := r.rank(s, g); rk != local {
					t.Errorf("rank(%d,%d) = %d, locate said %d", s, g, rk, local)
					return
				}
				// The local index maps back to the same global position.
				if back := r.selectShard(s, local); back != int(g) {
					t.Errorf("selectShard(%d,%d) = %d, want %d", s, local, back, g)
					return
				}
			}
		}(int64(reader))
	}
	// Writers drain first; then release the readers.
	for int(r.watermark.Load()) < n {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if got := int(r.watermark.Load()); got != n {
		t.Fatalf("watermark = %d, want %d", got, n)
	}
	checkRouter(t, r, roundRobinModel(n, shards), rand.New(rand.NewSource(1)))
}

func roundRobinModel(n, shards int) routerModel {
	m := make(routerModel, n)
	for g := range m {
		m[g] = g % shards
	}
	return m
}

// TestShardedIteratePrefixDifferential holds the k-way SelectPrefix /
// IteratePrefix merge to the model across random flush points (mixed
// frozen generations + memtables per shard), dense and absent prefixes,
// and resume offsets either side of router chunk boundaries.
func TestShardedIteratePrefixDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 11000
	hosts := []string{"api/v1/", "api/v2/", "web/", "img/", "a"}
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s%d", hosts[rng.Intn(len(hosts))], rng.Intn(400))
	}
	ss, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: 4, Store: *testOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, v := range vals {
		if err := ss.Append(v); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2000) == 0 {
			if err := ss.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	CheckModel(t, ss.Snapshot(), vals, nil)
}

// TestStoreIteratePrefix holds the plain (unsharded) segment walk to the
// model across flush-split segments, through the store's own methods.
func TestStoreIteratePrefix(t *testing.T) {
	s := mustOpen(t, t.TempDir(), testOpts())
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	vals := make([]string, 4000)
	for i := range vals {
		vals[i] = fmt.Sprintf("p%d/%d", rng.Intn(3), i)
	}
	model.Apply(t, &modelStore{t: t, s: s}, model.New(), model.Flushed(vals, nil, len(vals)/3, 2*len(vals)/3)...)
	model.FromSlice(vals, nil).Check(t, storeReader{model.Seq(s), s})
}
