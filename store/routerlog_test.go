package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// routerPayload packs ids into one ROUTER record payload for a store of
// shards partitions, through the writer's own encoder.
func routerPayload(ids []byte, shards int) []byte {
	r := newRouter(shards)
	r.bulkLoad(ids)
	return r.appendRecord(nil, 0, uint64(len(ids)))
}

// TestRouterLogBitsPerValue: the ROUTER log spends ⌈log₂ N⌉ bits a
// routed value, plus a bounded framing a record — after the seal
// barrier's append and after the open-time rewrite alike.
func TestRouterLogBitsPerValue(t *testing.T) {
	const k = 5000
	vals := workload.URLLog(k, 3, workload.DefaultURLConfig())
	for _, n := range []int{1, 2, 3, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			opts := &ShardedOptions{Shards: n, Store: Options{DisableAutoFlush: true}}
			s, err := OpenSharded(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vals {
				if err := s.Append(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			checkRouterLogSize(t, dir, n, k, "after a flush")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenSharded(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			checkRouterLogSize(t, dir, n, k, "after the open-time rewrite")
			snap := re.Snapshot()
			if snap.Len() != k {
				t.Fatalf("reopened Len = %d, want %d", snap.Len(), k)
			}
			for i, v := range vals {
				if got := snap.Access(i); got != v {
					t.Fatalf("reopened Access(%d) = %q, want %q", i, got, v)
				}
			}
		})
	}
}

// checkRouterLogSize holds dir/ROUTER, covering k routed values of a
// store of n shards, to its 6-byte header, ⌈k·w/8⌉ bytes of ids and, a
// record, an 8-byte frame, a count of at most 3 bytes and a padding
// byte — with as few records as k values need.
func checkRouterLogSize(t *testing.T, dir string, n, k int, when string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "ROUTER"))
	if err != nil {
		t.Fatal(err)
	}
	nrec := 0
	for pos := 6; len(data)-pos >= 8; nrec++ {
		pos += 8 + int(binary.LittleEndian.Uint32(data[pos:]))
	}
	const batch = 1 << 15
	if want := (k + batch - 1) / batch; nrec > want {
		t.Fatalf("%s: ROUTER holds %d records, want at most %d", when, nrec, want)
	}
	w := bits.Len(uint(n - 1))
	bound := 6 + (k*w+7)/8 + nrec*(8+3+1)
	t.Logf("%s: ROUTER %d bytes for %d values, %.3f bits/value (bound %d bytes, w = %d)",
		when, len(data), k, float64(8*len(data))/float64(k), bound, w)
	if len(data) > bound {
		t.Fatalf("%s: ROUTER is %d bytes, want ≤ %d (%d bits a value)", when, len(data), bound, w)
	}
}

// TestRouterRecordRoundTrip: every batch the writer packs decodes to its
// ids under the same shard count, and a record disagreeing with that
// count in length, padding or ids is refused without touching the ids
// decoded so far.
func TestRouterRecordRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8, 17, MaxShards} {
		for _, count := range []int{1, 7, 8, 9, routerChunkLen + 3} {
			ids := make([]byte, count)
			for i := range ids {
				ids[i] = byte((i*7 + count) % shards)
			}
			p := routerPayload(ids, shards)
			w := routerWidth(shards)
			if want := uvarintLen(uint64(count)) + (count*w+7)/8; len(p) != want {
				t.Fatalf("shards=%d count=%d: payload %d bytes, want %d", shards, count, len(p), want)
			}
			got, ok := decodeRouterRecord([]byte{9}, p, shards)
			if !ok || !bytes.Equal(got, append([]byte{9}, ids...)) {
				t.Fatalf("shards=%d count=%d: round trip failed (ok=%v)", shards, count, ok)
			}
			long := append(append([]byte(nil), p...), 0)
			if got, ok := decodeRouterRecord([]byte{9}, long, shards); ok || !bytes.Equal(got, []byte{9}) {
				t.Fatalf("shards=%d count=%d: a byte past the packed ids accepted", shards, count)
			}
			if pad := len(p)*8 - uvarintLen(uint64(count))*8 - count*w; pad > 0 {
				dirty := append([]byte(nil), p...)
				dirty[len(dirty)-1] |= 0x80
				if _, ok := decodeRouterRecord(nil, dirty, shards); ok {
					t.Fatalf("shards=%d count=%d: nonzero padding accepted", shards, count)
				}
			}
			if shards&(shards-1) != 0 { // a width with ids of no shard
				bad := append([]byte(nil), ids...)
				bad[count/2] = byte(1<<w - 1)
				if _, ok := decodeRouterRecord(nil, routerPayload(bad, 1<<w), shards); ok {
					t.Fatalf("shards=%d count=%d: id ≥ shards accepted", shards, count)
				}
			}
		}
	}
	for _, p := range [][]byte{nil, {0}, {0x81, 0x00}, binary.AppendUvarint(nil, routerBatchLen+1)} {
		if _, ok := decodeRouterRecord(nil, p, 1); ok {
			t.Fatalf("payload %x accepted", p)
		}
	}
}

func uvarintLen(x uint64) int { return len(binary.AppendUvarint(nil, x)) }
