package server

import (
	"repro/store"
)

// Snap is the pinned, immutable read view a request is served from:
// every read op of a request sees exactly one store state, and every
// request on an unchanged store sees the same view (the stores pin one
// per state). Both store.Snapshot and store.ShardedSnapshot satisfy it.
type Snap interface {
	Len() int
	AlphabetSize() int
	Height() int
	SizeBits() int
	Access(pos int) string
	Rank(v string, pos int) int
	Count(v string) int
	Select(v string, idx int) (int, bool)
	RankPrefix(p string, pos int) int
	CountPrefix(p string) int
	SelectPrefix(p string, idx int) (int, bool)
	Iterate(l, r int, fn func(pos int, s string) bool)
	// ScanPrefix streams the prefix's matches — index, position, value —
	// from match offset from, off one cursor per generation. v is valid
	// only during that call of fn.
	ScanPrefix(p string, from int, fn func(idx, pos int, v []byte) bool)
	// ContentFingerprint hashes the visible values themselves — and, when
	// a schema is pinned, every payload cell — so two different stores (a
	// primary and its follower) can be compared.
	ContentFingerprint() uint64
	// Schema is the pinned column schema; nil when the store carries no
	// columnar attachments.
	Schema() []store.ColumnSpec
	// Row materializes position pos's payload row (nil when no schema).
	Row(pos int) store.Row
	// CountWhere counts positions matching prefix ∩ numeric predicates.
	CountWhere(prefix string, preds ...store.Pred) (int, error)
	// ScanWhere streams the matches of prefix ∩ predicates — index,
	// position, value — in position order from match offset from. v is
	// valid only during that call of fn.
	ScanWhere(prefix string, from int, preds []store.Pred, fn func(idx, pos int, v []byte) bool) error
}

// Backend is the store surface the server drives — satisfied by
// adapters over store.Store (ForStore) and store.ShardedStore
// (ForSharded).
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
	Snap() Snap
}

// ForStore adapts a plain store into a server Backend.
func ForStore(st *store.Store) Backend { return storeBackend{st} }

// ForSharded adapts a sharded store into a server Backend.
func ForSharded(ss *store.ShardedStore) Backend { return shardedBackend{ss} }

type storeBackend struct{ *store.Store }

func (b storeBackend) Shards() int              { return 1 }
func (b storeBackend) Router() store.RouterInfo { return store.RouterInfo{} }
func (b storeBackend) Snap() Snap               { return b.Snapshot() }

type shardedBackend struct{ *store.ShardedStore }

func (b shardedBackend) Shards() int              { return b.ShardCount() }
func (b shardedBackend) Router() store.RouterInfo { return b.RouterInfo() }
func (b shardedBackend) Snap() Snap               { return b.Snapshot() }
