package store

import (
	"fmt"
	"time"

	wavelettrie "repro"
	"repro/internal/obs"
)

// Compaction keeps the generation count bounded so merged reads stay
// cheap: each query op costs at most one probe per segment, so the read
// amplification is the generation count. The policy is size-tiered over
// adjacent runs — order must be preserved, so only neighbors may merge —
// seeded at the pair with the smallest combined element count and
// extended over neighbors no larger than the accumulated run (pickRun),
// which folds a backlog of flush-sized generations into one merge
// before touching big ones. The background compactor enforces
// Options.MaxGenerations after every flush; Compact merges everything
// into one.
//
// Compaction is two-phase so it never blocks the write path:
//
//   - Prepare (outside adminMu, serialized by compactMu): merge the
//     victim run's frozen tries structurally into the trie of their
//     concatenation, write the new generation's files. Flushes
//     run concurrently — they only append generations, so the victim
//     run stays adjacent and present.
//   - Commit (under adminMu): splice the merged generation into the
//     current list, rewrite the manifest, publish the new state. Only
//     this pointer-swap-sized step contends with Flush.
//
// A commit aborted by Close or a write-path failure leaves the prepared
// files as orphans for the next Open to reclaim — they were never
// referenced by a manifest, so they can never become reachable.

// compact merges adjacent generations until at most target remain —
// the same policy the background compactor applies with
// Options.MaxGenerations as the target (Store.Compact asks for one).
// Readers holding snapshots keep their old generation list (the loaded
// tries stay in memory even after their files are deleted); new
// snapshots see the merged generations. Appends and flushes proceed
// concurrently; only the final manifest swap of each merge briefly
// excludes them. Quiescent, the call always reaches the target;
// generations flushed while it runs may leave more (the work is bounded
// rather than chasing a sustained writer forever — see compactTo).
func (s *shard) compact(target int) error {
	if err := s.err(); err != nil {
		return err
	}
	if err := s.compactTo(target); err != nil {
		if err != errClosed {
			s.fail(err)
		}
		return err
	}
	return nil
}

// compactTo merges smallest adjacent runs until at most target
// generations remain. It takes compactMu (one compaction at a time) but
// not adminMu — each merge acquires that only for its commit.
//
// With flushes no longer blocked during merges, a sustained writer can
// append new generations as fast as they merge; chasing them could loop
// (and hold compactMu, starving Close) forever. The merge count is
// therefore bounded by the generation count at entry — enough to fold
// everything present when the call began even with no interference; if
// concurrent flushes leave more than target afterwards, the next
// compaction (the background one triggers after every flush) resumes.
func (s *shard) compactTo(target int) error {
	if target < 1 {
		target = 1
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	budget := len(s.state.Load().gens)
	for {
		if s.closed.Load() {
			return errClosed
		}
		if err := s.err(); err != nil {
			return err
		}
		st := s.state.Load()
		if len(st.gens) <= target || budget <= 0 {
			return nil
		}
		budget--
		if err := s.mergeRun(st); err != nil {
			return err
		}
	}
}

// pickRun chooses the victim range [lo, hi] (inclusive): the adjacent
// pair with the smallest combined count, greedily extended over
// neighbors no larger than the accumulated run. A backlog of
// flush-sized generations thus merges in ONE prepare/commit instead of
// one commit per pair — fewer manifest fsyncs contending with Flush —
// while the size guard keeps write amplification logarithmic (a large
// generation is only rewritten when the run has grown to its order).
func pickRun(gens []*generation) (lo, hi, total int) {
	best, bestN := 0, -1
	for i := 0; i+1 < len(gens); i++ {
		if n := gens[i].ix.Len() + gens[i+1].ix.Len(); bestN < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	lo, hi, total = best, best+1, bestN
	for {
		switch {
		case lo > 0 && gens[lo-1].ix.Len() <= total:
			lo--
			total += gens[lo].ix.Len()
		case hi+1 < len(gens) && gens[hi+1].ix.Len() <= total:
			hi++
			total += gens[hi].ix.Len()
		default:
			return lo, hi, total
		}
	}
}

// mergeRun replaces the victim run with one merged generation. The
// caller holds compactMu (never adminMu). Every pre-commit exit is an
// abort in the metrics: the prepared files (if any) become orphans.
func (s *shard) mergeRun(st *storeState) error {
	t0 := time.Now()
	sp := obs.DefaultTracer.Start("compact")
	lo, hi, _ := pickRun(st.gens)
	victims := st.gens[lo : hi+1]

	// Allocate the merged generation's file id; ids are guarded by
	// adminMu and shared with the flush path.
	s.adminMu.Lock()
	if s.closed.Load() {
		s.adminMu.Unlock()
		met.compactAborts.Inc()
		return errClosed
	}
	gid := s.nextID
	s.nextID++
	s.adminMu.Unlock()

	// Phase 1 — prepare. Merge the victims' tries structurally (§9): their
	// shapes walked together in preorder, node bitvectors concatenated, no
	// element decoded — peak memory for a merge of any size is the merged
	// index's raw bits. Flush latency is unaffected however large the
	// merge is. Close waits on compactMu, so the merge polls closed (per
	// node and per 64 Ki copied bits) and bails early — the commit would
	// only abort anyway; the marshal/write stage is not interruptible, so
	// shutdown latency is bounded by that stage, not by the whole merge.
	// A victim that disagrees with itself fails the merge here, before any
	// file is written: the victims' files and the manifest stay as they
	// are.
	parts := make([]*wavelettrie.Frozen, len(victims))
	for i, g := range victims {
		parts[i] = g.ix
	}
	ix, err := wavelettrie.ConcatFrozen(func() bool { return !s.closed.Load() }, parts...)
	if err != nil {
		met.compactAborts.Inc()
		if s.closed.Load() {
			return errClosed
		}
		return err
	}
	merged, err := writeGenerationFrom(s.dir, gid, s.schema, genColFeeder{gens: victims}, ix)
	if err != nil {
		met.compactAborts.Inc()
		return err
	}
	mergedBytes := merged.fileBytes
	merged = s.maybeRemap(merged)

	// Phase 2 — commit under adminMu, against the *current* state: a
	// flush may have appended generations since the run was chosen, but
	// never reordered or removed them (only compaction does, and we are
	// the only compaction).
	s.adminMu.Lock()
	if s.closed.Load() || s.err() != nil {
		// Abort: the prepared files are unreferenced orphans; the next
		// Open reclaims them. Deleting here would race a subsequent Open
		// by another process once Close releases the directory lock.
		err := s.err()
		s.adminMu.Unlock()
		if err == nil {
			err = errClosed
		}
		met.compactAborts.Inc()
		return err
	}
	cur := s.state.Load()
	if hi >= len(cur.gens) {
		s.adminMu.Unlock()
		met.compactAborts.Inc()
		return fmt.Errorf("store: compaction victim run moved (internal error)")
	}
	for i, g := range victims {
		if cur.gens[lo+i].id != g.id {
			s.adminMu.Unlock()
			met.compactAborts.Inc()
			return fmt.Errorf("store: compaction victim run moved (internal error)")
		}
	}
	gens := make([]*generation, 0, len(cur.gens)-len(victims)+1)
	gens = append(gens, cur.gens[:lo]...)
	gens = append(gens, merged)
	gens = append(gens, cur.gens[hi+1:]...)

	// After a deferred recovery checkpoint (sharded open), WALs older
	// than s.walID still hold live records until the next flush folds
	// them in; the committed walID must keep them alive or the next
	// Open would delete acknowledged appends.
	walID := s.walID
	if len(s.recoveredWALs) > 0 {
		walID = s.recoveredWALs[0]
	}
	m := manifest{nextID: s.nextID, walID: walID, gens: genMetas(gens), schema: s.schema}
	if err := writeManifest(s.dir, m); err != nil {
		s.adminMu.Unlock()
		met.compactAborts.Inc()
		return err
	}
	// The memtable pointers are stable while adminMu is held (only a
	// flush swaps them), so republishing around them is safe under
	// concurrent appends.
	s.publish(&storeState{gens: gens, sealed: cur.sealed, mem: cur.mem})
	s.adminMu.Unlock()

	var readBytes int
	for _, g := range victims {
		readBytes += g.fileBytes
		removeGenFiles(s.dir, g.id)
	}
	met.compactions.Inc()
	met.compactBytesRead.Add(int64(readBytes))
	met.compactBytesWritten.Add(int64(mergedBytes))
	met.compactSeconds.ObserveSince(t0)
	sp.End(fmt.Sprintf("victims=%d read_bytes=%d written_bytes=%d", len(victims), readBytes, mergedBytes))
	return nil
}

// genMetas builds the manifest entries for a generation list.
func genMetas(gens []*generation) []genMeta {
	metas := make([]genMeta, len(gens))
	for i, g := range gens {
		metas[i] = genMeta{id: g.id, n: g.ix.Len(), crc: g.crc, colCRC: g.colCRC, cdCRC: g.cdCRC}
	}
	return metas
}
