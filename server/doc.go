// Package server turns a store.Store — flat or sharded — into a
// network service: a compact length-prefixed binary protocol (plus an
// HTTP/JSON gateway) over the store's whole indexed-sequence surface —
// Append/AppendBatch, Access, Rank, Count, Select, the prefix forms,
// paged iteration, Flush/Compact/Stats.
//
// Three mechanisms carry the load:
//
//   - Group commit. Connection handlers never append directly; they
//     enqueue values and a single committer coalesces everything
//     pending — across all connections — into one AppendBatchRows
//     call, the only write the server makes on a store: one
//     append-lock acquisition, one WAL write, at most one fsync per
//     involved shard per batch. Under concurrency the per-append log cost amortizes toward
//     zero; an idle server commits a lone append immediately.
//
//   - Pinned views, and positions as the only resume token. Every
//     read request is served from one immutable view of the store — a
//     *store.Snapshot, the one view type every store layout serves — so
//     readers never block writers and never see a half-applied batch.
//     The store keeps one view per visible state: while nothing is
//     appended, flushed or compacted every request pins the same one
//     with a pointer load, and the first request after a change builds
//     the next. Nothing is pinned for a client across requests: the
//     sequence is append-only, so a position names the same element
//     forever, and every multi-request walk — an Iterate scan, a prefix
//     or predicate scan, a replication subscription — resumes by
//     echoing a position (or match index, or sequence number) that any
//     later view serves identically. The server holds no per-client
//     state between requests other than live replication subscriptions.
//
//   - A request loop that allocates for the key and the answer only. A
//     connection owns one frame buffer, one response buffer and one
//     scan-page buffer, and a scan page is encoded as the cursor yields
//     its matches.
//
// The server enforces a connection cap (excess accepts wait —
// backpressure at the door), bounds frame sizes, and drains gracefully
// on Shutdown: in-flight requests finish, queued appends commit, then
// connections close. See DESIGN.md §8 for the wire format and the
// cmd/wtserve command for the deployable binary.
package server
