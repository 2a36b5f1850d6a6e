package server

import (
	"repro/store"
)

// Backend is the store the server drives: New takes the *store.Store
// itself, whatever its shard count.
type Backend = *store.Store

// ForStore returns st: the identity, kept for callers that still spell
// it.
func ForStore(st *store.Store) Backend { return st }

// ForSharded returns st: the identity, kept for callers that still
// spell it.
func ForSharded(st *store.Store) Backend { return st }
