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
// The client's methods that already have the REPL's signatures (Append,
// Flush, Compact, MetricsText) serve as they are; the others
// surface transport or server errors as panics, which the REPL already
// converts to printed errors — the same convention the local variants
// use for out-of-range arguments.
type remoteIndex struct {
	*server.Client
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func (r *remoteIndex) stats() server.Stats { return must(r.Client.Stats()) }

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
func (r *remoteIndex) Access(pos int) string { return must(r.Client.Access(pos)) }

// Rank counts occurrences of v in positions [0, pos).
func (r *remoteIndex) Rank(v string, pos int) int { return must(r.Client.Rank(v, pos)) }

// Count returns the total number of occurrences of v.
func (r *remoteIndex) Count(v string) int { return must(r.Client.Count(v)) }

// Select returns the position of the idx-th occurrence of v.
func (r *remoteIndex) Select(v string, idx int) (int, bool) {
	pos, ok, err := r.Client.Select(v, idx)
	if err != nil {
		panic(err)
	}
	return pos, ok
}

// RankPrefix counts elements in [0, pos) having byte prefix p.
func (r *remoteIndex) RankPrefix(p string, pos int) int { return must(r.Client.RankPrefix(p, pos)) }

// CountPrefix returns the total number of elements with byte prefix p.
func (r *remoteIndex) CountPrefix(p string) int { return must(r.Client.CountPrefix(p)) }

// SelectPrefix returns the position of the idx-th element with byte
// prefix p.
func (r *remoteIndex) SelectPrefix(p string, idx int) (int, bool) {
	pos, ok, err := r.Client.SelectPrefix(p, idx)
	if err != nil {
		panic(err)
	}
	return pos, ok
}

// IteratePrefix streams prefix-match positions from the from-th match,
// paginated statelessly over the binary protocol.
func (r *remoteIndex) IteratePrefix(p string, from int, fn func(idx, pos int) bool) {
	err := r.Client.ScanPrefix(p, from, -1, 0, func(idx, pos int, _ string) bool { return fn(idx, pos) })
	if err != nil {
		panic(err)
	}
}

// Schema returns the remote store's column schema from Stats.
func (r *remoteIndex) Schema() []store.ColumnSpec { return r.stats().Schema }

// Row fetches the payload row at position pos over the protocol.
func (r *remoteIndex) Row(pos int) store.Row { return must(r.Client.Row(pos)) }

// CountWhere counts predicate matches in one round trip.
func (r *remoteIndex) CountWhere(prefix string, preds ...store.Pred) (int, error) {
	return r.Client.CountWhere(prefix, preds...)
}

// IterateWhere streams predicate-scan matches from the from-th match,
// paginated statelessly over the binary protocol.
func (r *remoteIndex) IterateWhere(prefix string, from int, preds []store.Pred, fn func(idx, pos int) bool) error {
	return r.Client.ScanWhere(prefix, preds, from, -1, 0,
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

// connectRemote dials a wtserve server and wraps it for the REPL.
func connectRemote(addr string) (*remoteIndex, error) {
	c, err := server.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	return &remoteIndex{c}, nil
}
