// Package store is the durability and concurrency layer over the
// Wavelet Trie: a log-structured, crash-recoverable string store in the
// LSM mold, built from the pieces the rest of the repository provides.
//
// # Architecture
//
// There is one store type, Store, holding N ≥ 1 shards; each shard is
// the whole engine described here, over one directory. A directory
// without a SHARDS file is a flat store: its one shard is the directory
// itself, and nothing of the sharding below is in its way — no router,
// no hashing, no sequence numbers.
//
// Writes are acknowledged only after they are appended to a
// length-prefixed, CRC-checksummed write-ahead log and applied to an
// in-memory append-only Wavelet Trie (the memtable). When the memtable
// crosses Options.FlushThreshold it is sealed and persisted as an
// immutable frozen generation — the §3 fully-succinct encoding written
// through the unified persistence container — and recorded in an
// atomically-rewritten manifest carrying the file's checksum; the WAL
// that covered it is then deleted. A background compactor merges
// adjacent runs of small generations so the generation count stays
// bounded.
//
// Flush and compaction work on structure, not on elements: a sealed
// memtable's trie is frozen in place and the victims' tries are merged
// node by node, their bitvectors concatenated — no value is decoded
// back out of a trie to be inserted into another (DESIGN.md §9). An
// append is the paper's O(|s| + h_s) and nothing more: it frames a WAL
// record and inserts into the memtable's trie, and reads nothing else of
// the store — a new string is just a new leaf. There is one append path:
// a batch is framed into one buffer, written with one write and at most
// one fsync, and applied under one memtable lock; Append and AppendRow are
// batches of one, and the replay at Open applies each log as a batch
// through the same body. In particular nothing counts distinct values as
// they arrive: AlphabetSize is derived when asked for, by walking the
// shapes of the snapshot's tries together (the leaves of their union;
// labels only, no element decoded). Compaction is two-phase and never blocks the write path: the merge itself and the
// writing of the files run outside the admin lock while appends and
// flushes proceed (flushes only append generations, so the victim run
// stays adjacent), and only the final manifest swap commits under it.
//
// Reads never block writes and writes never block reads across
// generations: a Snapshot is an atomic pointer load of an immutable
// generation list plus a bounded view of the live memtable, and the five
// primitive operations (Access, Rank, Select, RankPrefix, SelectPrefix
// and the Count forms) are answered by stitching per-generation answers
// together with offset and rank arithmetic, one label-only descent per
// generation for a key it does not hold. A prefix's matches leave a
// segment one way only, behind a pull cursor (the trie's PrefixCursor for
// a generation, batched selects for the memtable), and a shard's stream
// reads its segments' cursors one after the other. Values leave a view
// one way only too, as a page of that stream, decoded a batch a segment
// (the trie's top-down extractor for a generation, point reads under one
// read lock a chunk for the memtable): the empty prefix matches every
// position, so Snapshot.Iterate/Slice, an export and a replication
// catch-up read its pages. Every
// layout is served by one view type, Snapshot: a flat store's is its
// shard's own view, whose stream is its shard's, and a sharded store's
// merges one stream per shard; the prefix and predicate scans are one function over
// either. A snapshot
// observes a fixed prefix of the logical sequence no matter how many
// appends, flushes or compactions happen after it was taken. Only the
// memtable tail is guarded by a read-write mutex — and the WAL fsync
// happens outside it, so even synchronous appends do not stall readers.
//
// Open replays the WAL tail on boot: torn or corrupt trailing records
// are truncated cleanly (never a panic), so a store killed mid-append
// reopens with every acknowledged write intact and serves exactly the
// answers a freshly built AppendOnly index over the same sequence would.
// Every generation file must match the checksum in its manifest entry
// — a mismatch, or an entry carrying none, fails Open — and then loads
// through the trusted path (no deep structural re-validation). A flush
// unlinks the logs its manifest supersedes: nothing but the live WAL
// outlives it, and no reader — replication included — ever needs one,
// because catch-up reads positions out of snapshots.
//
// # Sharding
//
// A store created with a shard count (OpenSharded) scales the write
// path across hash partitions: each shard — its own WAL, memtable,
// generations and compactor — lives in a shard-NNN subdirectory behind
// a SHARDS manifest, so appends from many writers fan out across
// per-shard locks and flush/compaction proceed per shard.
// The FNV-1a hash of a value's bytes, modulo the shard count, routes it
// (the routing is pinned by name in the SHARDS manifest), so whole-value
// point queries touch exactly one shard and per-shard alphabets stay
// disjoint. A shared router records which shard owns each global
// position — the interleaved append order, carried by a per-record
// sequence header in the shard WALs and persisted in the ROUTER log
// ahead of every flush, its shard ids packed at ⌈log₂ shards⌉ bits
// each; in memory its sealed chunks are wavelet matrices over the shard
// ids at the same width — and the store's Snapshot stitches
// per-shard answers back into the single logical sequence by offset
// arithmetic over it; with one shard there is no router arithmetic, and
// the view reads like a flat store's. A prefix's values hash apart, so a prefix enumeration is a
// merge of the shards' streams: a seek finds, by interpolating over the
// shards' summed prefix ranks, a cut of the global sequence with exactly
// the wanted number of matches before it; from there one head per shard
// is held, the smallest emitted and only its shard advanced, a value
// decoded only for a match that is handed out — so a page of m matches
// costs m + shards cursor steps whatever the shard count, and
// SelectPrefix is that merge stopped at its first match (DESIGN.md §11).
// Open and OpenSharded are one body: either opens whatever layout a
// directory holds (a shard count that disagrees is refused), recovers
// all shards in parallel and, with a SHARDS manifest, reconciles the
// interleave from the ROUTER log plus the WAL sequence headers.
//
// # Columns
//
// A store may pin a schema of typed columns (Options.Columns): every
// append can then carry a row of cells beside its value, addressed by the
// value's position. Rows ride the value's WAL record and sit in
// per-column arrays beside the memtable; at flush and compaction they are
// frozen into the column section (and a blob directory section for blob
// payloads) of the generation's one file, gen-<id>.wt, after its trie,
// under the file's one manifest checksum and its one mapping. A numeric column is a
// wavelet matrix (internal/wavelettree's Matrix, the router's type too) —
// bit planes, MSB first — over its present values, or over their ranks in the generation's own sorted dictionary,
// whichever is smaller: a frozen generation is static, so the
// fixed-alphabet layout the paper sets the wavelet trie against applies
// to it, one alphabet per generation, and a two-valued column costs one
// bit a row, a constant one nothing. A presence vector that would be all
// ones or all zeros is a flag. The dictionary keeps order, so a range
// predicate is still rank arithmetic alone — CountWhere with one
// predicate decodes no value — and a cell read walks ⌈log₂ D⌉ planes.
// Version 2 of the column image is the only one read; a version 1 image
// is refused by name and the directory left as it was. See DESIGN.md §13.
//
// Store satisfies the root package's StringIndex
// interface, so everything programmed against wavelettrie.StringIndex
// — including the wtquery REPL — can serve from a durable store
// unchanged. See DESIGN.md §5 for the on-disk formats and the crash
// matrix, §6 for the iterator contract and the two-phase compaction
// protocol, and §7 for the sharding design (FNV-1a routing,
// global-offset arithmetic, SHARDS/ROUTER formats, sharded crash matrix).
package store
