// Package wavelettrie is a Go implementation of the Wavelet Trie of
// Roberto Grossi and Giuseppe Ottaviano, "The Wavelet Trie: Maintaining
// an Indexed Sequence of Strings in Compressed Space" (PODS 2012,
// arXiv:1204.3581) — a compressed indexed sequence of strings.
//
// # The problem
//
// An indexed sequence of strings stores a sequence S = ⟨s₀,…,s_{n-1}⟩
// (strings repeat; order matters) and supports, beyond positional access:
//
//	Access(pos)            the string at position pos
//	Rank(s, pos)           occurrences of s before position pos
//	Select(s, idx)         position of the idx-th occurrence of s
//	RankPrefix(p, pos)     elements before pos having prefix p
//	SelectPrefix(p, idx)   position of the idx-th element with prefix p
//
// plus range analytics (distinct values, range majority, top-k, threshold
// counting) and, in the dynamic variants, Insert/Append/Delete — all in
// compressed space close to the information-theoretic lower bound
// LB(S) = LT(Sset) + nH₀(S).
//
// # The three variants
//
//   - Static: immutable, queries in O(|s|+h_s), space LB + o(h̃n).
//   - AppendOnly: additionally Append in O(|s|+h_s) — index a log on the
//     fly; space LB + PT + o(h̃n).
//   - Dynamic: arbitrary Insert and Delete in O(|s|+h_s·log n), with a
//     fully dynamic alphabet (unseen strings simply work); space
//     LB + PT + O(nH₀).
//
// Here h_s is the number of Patricia-trie nodes on s's path (h_s ≤ |s|
// bits, typically far smaller thanks to path compression), h̃ the average
// over the sequence, and PT the Patricia trie pointer overhead.
//
// Numeric sequences over a bounded universe are served by Numeric, the §6
// randomized Wavelet Tree, whose height depends only on the working
// alphabet (w.h.p.), not the universe. The Frozen type is the §3
// fully-succinct encoding of a Static — the smallest representation,
// serving the five primitive operations with no pointers at all.
//
// # The Index interface and persistence
//
// Every variant — Static, AppendOnly, Dynamic, Numeric, Frozen —
// satisfies the Index interface: the structural accessors plus
// MarshalBinary. The string-serving variants additionally satisfy
// StringIndex (the primitive operations), and Static, AppendOnly and
// Dynamic satisfy RangeIndex (the full §5 analytics surface). Tools
// program against these interfaces, so an index can be swapped for
// another variant — or for one reopened from a snapshot — without code
// changes.
//
// MarshalBinary produces a self-contained, versioned binary snapshot
// (see DESIGN.md §4 for the wire formats); Load reopens any snapshot,
// and LoadStatic/LoadAppendOnly/LoadDynamic/LoadNumeric/LoadFrozen
// enforce a concrete variant. Loading performs no O(n·|s|) rebuild —
// only rank-directory reconstruction — so a process restart costs
// milliseconds instead of a full re-index, and mutations resume on the
// loaded index:
//
//	data, _ := wt.MarshalBinary()          // checkpoint a live index
//	os.WriteFile("index.wt", data, 0o644)  // ship it to disk or peers
//	...
//	data, _ = os.ReadFile("index.wt")
//	wt, _ = wavelettrie.LoadAppendOnly(data)
//	wt.Append("resumes/immediately")
//
// Snapshots are validated on load: corrupt or truncated input returns
// an error (never panics), and a successfully loaded index is safe
// across its whole query surface.
//
// # The durable store
//
// The store subpackage (repro/store) turns the persistence layer into a
// full storage engine: a log-structured, crash-recoverable store whose
// writes go through a checksummed write-ahead log into an AppendOnly
// memtable, whose flushed runs are Frozen generations recorded in an
// atomically-rewritten manifest, and whose reads are snapshot-isolated —
// lock-free across generations, concurrent with appends and compaction.
// For multi-writer scaling, a store created with a shard count
// hash-partitions the sequence over N such engines and serves it back in
// global append order through cross-shard snapshots. store.Store
// satisfies StringIndex, whatever its layout, so it drops into anything
// programmed against the interface family (wtquery serves it with
// -store, and creates a sharded one with -shards). See DESIGN.md §5 for the on-disk
// formats and crash matrix, and §7 for the sharding design.
//
// The server subpackage (repro/server) and the cmd/wtserve binary put
// the store on the network: a compact binary protocol and an
// HTTP/JSON gateway, group-committed appends (concurrent clients
// coalesce into one WAL write and at most one fsync per batch),
// and reads served from the store's pinned view (one immutable view per
// store state, shared by every request until the state changes) with
// scans that resume by position. See DESIGN.md §8 for the protocol and
// drain semantics.
//
// # Example
//
//	wt := wavelettrie.NewAppendOnly()
//	for _, url := range accessLog {
//		wt.Append(url)
//	}
//	hits := wt.RankPrefix("host01.example/", wt.Len()) // prefix count
//	pos, ok := wt.SelectPrefix("host01.example/", 41)  // 42nd such access
//
// Positions and indexes are 0-based throughout; Rank counts over the
// half-open window [0, pos); all range operations use half-open [l, r).
// Out-of-range positions panic, mirroring slice indexing; absence is
// reported through ok-style returns, never panics.
//
// The implementation is stdlib-only. Internal packages implement every
// substrate from scratch: RRR bitvectors, the §4.1 append-only bitvector,
// the §4.2 dynamic RLE+γ bitvector, dynamic Patricia tries, Elias-Fano
// partial sums, Elias γ codes, and balanced-parentheses succinct trees
// (the strictly binary trie's shape is one bit a node). A snapshot written
// by an older format version is refused by version, never converted. See
// DESIGN.md
// for the substrate inventory, the substitution table, the wire-format
// reference, and the index of the cmd/wtbench experiments that reproduce
// every bound in the paper's Table 1; the engine around the structure
// (store, shards, columns, server) is measured by bench/.
package wavelettrie
