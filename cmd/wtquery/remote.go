package main

import (
	"errors"
	"fmt"

	"repro/server"
	"repro/store"
)

// remoteIndex adapts a wtserve connection to the REPL's interfaces:
// the StringIndex query surface plus the storeIndex lifecycle commands
// (append/flush/compact/gens), all forwarded over the binary protocol.
// Transport or server errors surface as panics, which the REPL already
// converts to printed errors — the same convention the local variants
// use for out-of-range arguments.
type remoteIndex struct {
	c *server.Client
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func (r *remoteIndex) stats() server.Stats { return must(r.c.Stats()) }

// Len returns the number of elements in the remote sequence.
func (r *remoteIndex) Len() int { return r.stats().Len }

// AlphabetSize returns the remote distinct-value count.
func (r *remoteIndex) AlphabetSize() int { return r.stats().Distinct }

// Height returns the remote store's maximum trie height.
func (r *remoteIndex) Height() int { return r.stats().Height }

// SizeBits returns the remote store's in-memory footprint.
func (r *remoteIndex) SizeBits() int { return r.stats().SizeBits }

// MarshalBinary is not served remotely: snapshots belong next to the
// data. Use wtserve's store directory (or MarshalBinary in-process).
func (r *remoteIndex) MarshalBinary() ([]byte, error) {
	return nil, errors.New("save is not supported over -connect; snapshot on the server side")
}

// Access returns the string at position pos.
func (r *remoteIndex) Access(pos int) string { return must(r.c.Access(pos)) }

// Rank counts occurrences of v in positions [0, pos).
func (r *remoteIndex) Rank(v string, pos int) int { return must(r.c.Rank(v, pos)) }

// Count returns the total number of occurrences of v.
func (r *remoteIndex) Count(v string) int { return must(r.c.Count(v)) }

// Select returns the position of the idx-th occurrence of v.
func (r *remoteIndex) Select(v string, idx int) (int, bool) {
	pos, ok, err := r.c.Select(v, idx)
	if err != nil {
		panic(err)
	}
	return pos, ok
}

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (r *remoteIndex) RankPrefix(p string, pos int) int { return must(r.c.RankPrefix(p, pos)) }

// CountPrefix returns the total number of elements with byte prefix p.
func (r *remoteIndex) CountPrefix(p string) int { return must(r.c.CountPrefix(p)) }

// SelectPrefix returns the position of the idx-th element with byte
// prefix p.
func (r *remoteIndex) SelectPrefix(p string, idx int) (int, bool) {
	pos, ok, err := r.c.SelectPrefix(p, idx)
	if err != nil {
		panic(err)
	}
	return pos, ok
}

// IteratePrefix streams prefix-match positions from the from-th match,
// paginated statelessly over the binary protocol.
func (r *remoteIndex) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	err := r.c.ScanPrefix(p, from, -1, 0, func(idx, pos int, _ string) bool { return fn(idx, pos) })
	if err != nil {
		panic(err)
	}
}

// Schema returns the remote store's column schema from Stats.
func (r *remoteIndex) Schema() []store.ColumnSpec { return must(r.c.Schema()) }

// Row fetches the payload row at position pos over the protocol.
func (r *remoteIndex) Row(pos int) store.Row { return must(r.c.Row(pos)) }

// CountWhere counts predicate matches by streaming the scan — the
// protocol has no dedicated count opcode, and REPL-scale counts don't
// need one.
func (r *remoteIndex) CountWhere(prefix string, preds ...store.Pred) (int, error) {
	n := 0
	err := r.c.ScanWhere(prefix, preds, 0, -1, 0,
		func(int, int, string, store.Row) bool { n++; return true })
	return n, err
}

// IterateWhere streams predicate-scan matches from the from-th match,
// paginated statelessly over the binary protocol.
func (r *remoteIndex) IterateWhere(prefix string, from int, preds []store.Pred, fn func(idx, pos int) bool) error {
	return r.c.ScanWhere(prefix, preds, from, -1, 0,
		func(idx, pos int, _ string, _ store.Row) bool { return fn(idx, pos) })
}

// RouterInfo reconstructs the remote router's representation split
// from the Stats reply (zero for unsharded servers).
func (r *remoteIndex) RouterInfo() store.RouterInfo {
	st := r.stats()
	return store.RouterInfo{
		Elems:        st.Len,
		Bits:         st.RouterBits,
		FrozenChunks: st.RouterFrozenChunks,
		TailChunks:   st.RouterTailChunks,
	}
}

// Append adds v at the end of the remote sequence (group-committed
// server-side).
func (r *remoteIndex) Append(v string) error { return r.c.Append(v) }

// Flush seals the remote memtable into a frozen generation.
func (r *remoteIndex) Flush() error { return r.c.Flush() }

// Compact merges the remote store's generations.
func (r *remoteIndex) Compact() error { return r.c.Compact() }

// MemLen returns the remote memtable length.
func (r *remoteIndex) MemLen() int { return r.stats().MemLen }

// Generations lists the remote store's frozen generations.
func (r *remoteIndex) Generations() []store.GenInfo {
	st := r.stats()
	out := make([]store.GenInfo, len(st.Gens))
	for i, g := range st.Gens {
		out[i] = store.GenInfo{ID: g.ID, Len: g.Len, SizeBits: g.SizeBits,
			MinValue: g.MinValue, MaxValue: g.MaxValue}
	}
	return out
}

// MetricsText returns the server's engine-wide metrics as Prometheus
// text — the same snapshot its HTTP gateway serves on /metrics, so the
// REPL's 'metrics' command works without gateway access.
func (r *remoteIndex) MetricsText() (string, error) { return r.c.MetricsText() }

// connectRemote dials a wtserve server and wraps it for the REPL.
func connectRemote(addr string) (*remoteIndex, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	return &remoteIndex{c: c}, nil
}
