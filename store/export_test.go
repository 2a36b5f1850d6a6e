package store

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// TestMarshalBinaryPinned holds Store.MarshalBinary to fixed SHA-256
// sums on the three shapes an export reads: generations plus an unflushed
// tail, a memtable alone, and several shards interleaved by the router.
// The export is the view's sequence frozen once, so a change to how it is
// gathered or frozen must leave these bytes alone.
func TestMarshalBinaryPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		shards, n int
		flushAt   []int // positions after which the store flushes
		want      string
	}{
		{"flat, 3 generations and a tail", 1, 5000, []int{1500, 3000, 4500}, "c8c5fc0286b5257cfae31ba7554bd8de632ff1c58c5332c42f3bd6c6f7d1c890"},
		{"flat, memtable only", 1, 3000, nil, "b63d11e8609c0acff92b87897d92bc9fcf6d9ed58533f0bac7b396e2cf8e1dff"},
		{"3 shards, flushed and unflushed", 3, 6000, []int{2000, 4000}, "77d8436e72e0ba8cd873e1a91f9a21ce050dae8bcd872787a87738c657054880"},
	} {
		seq := workload.URLLog(c.n, int64(c.shards+len(c.flushAt)), workload.DefaultURLConfig())
		seq[c.n/3] = "" // the empty string is a value too
		st, err := OpenSharded(t.TempDir(), &ShardedOptions{Shards: c.shards, Store: Options{FlushThreshold: 1 << 20, DisableAutoFlush: true}})
		if err != nil {
			t.Fatal(err)
		}
		at := 0
		for _, cut := range append(c.flushAt, c.n) {
			if err := st.AppendBatch(seq[at:cut]); err != nil {
				t.Fatal(err)
			}
			if at = cut; at < c.n {
				if err := st.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if gens := len(st.Generations()); c.shards == 1 && gens != len(c.flushAt) {
			t.Fatalf("%s: %d generations, want %d", c.name, gens, len(c.flushAt))
		}
		data, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: export of %d bytes hashes to %s, want %s", c.name, len(data), got, c.want)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
