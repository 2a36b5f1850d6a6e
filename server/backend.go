package server

import (
	"repro/store"
)

// Backend is the store surface the server drives — satisfied by
// adapters over store.Store (ForStore) and store.ShardedStore
// (ForSharded). The two differ in their write and admin surface only:
// both serve reads from the one view type, *store.Snapshot.
type Backend interface {
	// AppendBatchRows is the one write call, made once per coalesced group
	// commit: one WAL write and at most one fsync inside. rows is nil or
	// one payload row per value.
	AppendBatchRows(vs []string, rows []store.Row) error
	// Schema is the pinned column schema (nil when none).
	Schema() []store.ColumnSpec
	Flush() error
	Compact() error
	MemLen() int
	Generations() []store.GenInfo
	Shards() int
	// Router reports the sharded interleave router's representation
	// split; the zero value for unsharded backends.
	Router() store.RouterInfo
	// Snap is the pinned, immutable view a read request is served from:
	// every read op of a request sees exactly one store state, and every
	// request on an unchanged store sees the same view (the stores pin one
	// per state).
	Snap() *store.Snapshot
}

// ForStore adapts a plain store into a server Backend.
func ForStore(st *store.Store) Backend { return storeBackend{st} }

// ForSharded adapts a sharded store into a server Backend.
func ForSharded(ss *store.ShardedStore) Backend { return shardedBackend{ss} }

type storeBackend struct{ *store.Store }

func (b storeBackend) Shards() int              { return 1 }
func (b storeBackend) Router() store.RouterInfo { return store.RouterInfo{} }
func (b storeBackend) Snap() *store.Snapshot    { return b.Snapshot() }

type shardedBackend struct{ *store.ShardedStore }

func (b shardedBackend) Shards() int              { return b.ShardCount() }
func (b shardedBackend) Router() store.RouterInfo { return b.RouterInfo() }
func (b shardedBackend) Snap() *store.Snapshot    { return b.Snapshot() }
