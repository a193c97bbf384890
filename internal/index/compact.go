package index

import (
	"time"

	"dsh/internal/bitvec"
	"dsh/internal/obs"
)

// Compaction for a shard. Every layer retains its per-repetition key
// columns (segments since construction, memtables by design), so a merge
// never re-evaluates a hash function: it concatenates the key and id
// columns of the merged layers oldest-first, drops tombstoned rows, and
// rebuilds the open-addressed tables from the retained keys — O(rows * L)
// memory moves instead of O(rows * L) hash evaluations.
//
// The expensive column concatenation and table builds run against an
// immutable snapshot with no lock held, so concurrent queriers keep
// answering from the old layers; the swap retakes the structural lock and
// replaces exactly the snapshotted layers. All merges are serialized by
// mergeMu, and every other mutation only appends to the segment list, so
// a snapshot's layers stay at their positions for the whole build and no
// validation retry is needed.

// CompactionPolicy selects how merges treat tombstones; see the
// constants. Explicit Compact calls always merge everything regardless of
// policy.
type CompactionPolicy int

const (
	// CompactAll is the monolithic, id-preserving policy: every automatic
	// compaction folds all frozen state into a single segment. Queries then
	// probe one layer per repetition, but each merge rewrites the whole
	// index, and dead ids keep their tombstone bits forever.
	CompactAll CompactionPolicy = iota
	// CompactLeveled keeps one big bottom-level segment plus a small upper
	// tier. Automatic compactions fold fresh upper segments together
	// until the upper tier reaches 1/growthFactor of the bottom segment
	// (or dead rows reach 1/growthFactor of the live count), then run a
	// bottom-level merge that garbage-collects tombstones for good: dead
	// ids are dropped permanently, surviving rows are renumbered through a
	// dense shrinking id space (matching a static rebuild over the
	// survivors), and the tombstone bitmap is rebuilt at the smaller size.
	// Explicit Compact calls under this policy always run the bottom-level
	// GC merge. Because the GC renumbers ids, ids are stable only between
	// GC merges under this policy — use external keys (InsertKeyed) as the
	// durable identity, and see GCStats for the reclamation counters.
	CompactLeveled
)

// growthFactor is the size ratio steering the leveled policy; see
// CompactLeveled.
const growthFactor = 4

// GCStats reports tombstone occupancy and garbage-collection progress for
// a ShardedIndex, summed across its shards. DeadRows counts tombstoned
// rows still occupying table space across every layer; CollectedRows and
// ReclaimedBitmapBytes accumulate what leveled GC merges have permanently
// dropped. Under CompactAll, merges drop dead rows from
// the tables (DeadRows shrinks) but never renumber ids, so BitmapBytes
// only grows; only CompactLeveled reclaims it.
type GCStats struct {
	// LiveRows is the number of live (inserted and not deleted) rows.
	LiveRows int
	// DeadRows is the number of tombstoned rows still present in some
	// layer's tables, awaiting a merge to drop them.
	DeadRows int
	// BitmapBytes is the current tombstone-bitmap footprint in bytes.
	BitmapBytes int
	// CollectedRows is the total number of dead rows permanently dropped
	// by bottom-level GC merges so far.
	CollectedRows int
	// ReclaimedBitmapBytes is the total tombstone-bitmap storage released
	// by bottom-level GC merges so far.
	ReclaimedBitmapBytes int
}

// colSource is one mergeable layer: parallel id and per-repetition key
// columns in insertion order. Both segments and memtables provide it.
type colSource struct {
	ids  []int32
	keys [][]uint64
}

// colSources returns the retained columns of segs, in order.
func colSources(segs []*segment) []colSource {
	srcs := make([]colSource, len(segs))
	for i, s := range segs {
		srcs[i] = colSource{ids: s.globalIDs, keys: s.keys}
	}
	return srcs
}

// mergeSources concatenates the retained columns of the sources (given
// oldest-first), dropping rows whose id is tombstoned in dead, and
// freezes the result into one segment. It performs zero family hash
// evaluations. Returns nil when no row survives.
func mergeSources(L int, srcs []colSource, dead *bitvec.Bitmap) *segment {
	keeps := make([][]int32, len(srcs))
	total := 0
	for si, s := range srcs {
		var keep []int32
		for j, id := range s.ids {
			if !dead.Get(int(id)) {
				keep = append(keep, int32(j))
			}
		}
		keeps[si] = keep
		total += len(keep)
	}
	if total == 0 {
		return nil
	}
	ids := make([]int32, 0, total)
	for si, s := range srcs {
		for _, j := range keeps[si] {
			ids = append(ids, s.ids[j])
		}
	}
	seg := &segment{
		tables:    make([]flatTable, L),
		keys:      make([][]uint64, L),
		globalIDs: ids,
	}
	for rep := 0; rep < L; rep++ {
		col := make([]uint64, 0, total)
		for si, s := range srcs {
			sk := s.keys[rep]
			for _, j := range keeps[si] {
				col = append(col, sk[j])
			}
		}
		seg.keys[rep] = col
		seg.tables[rep] = buildFlatTable(col)
	}
	return seg
}

// Compact freezes the memtable and merges it with all frozen segments into
// a single segment, dropping deleted points from the tables. After Compact
// the shard answers queries from one flat segment and an empty memtable —
// the zero-allocation steady state, with candidate order matching a static
// Index over the live points. Safe to call concurrently with queries and mutations.
// Deletes that land during the merge stay tombstoned (bits are never
// cleared), so they remain filtered at query time even though the merged
// tables still contain them until the next merge.
//
// Under Policy == CompactLeveled, Compact is the bottom-level GC merge
// instead: it additionally renumbers the surviving rows through a dense id
// space and rebuilds the tombstone bitmap at the smaller size, so global
// ids may change (see CompactLeveled and GCStats).
func (dx *shard[P]) Compact() {
	if dx.opts.Policy == CompactLeveled {
		dx.compactGC()
		return
	}
	dx.mergeMu.Lock()
	defer dx.mergeMu.Unlock()

	dx.mu.Lock()
	dx.freezeLocked(false)
	segs := dx.segments
	if len(segs) <= 1 && !dx.segmentsHaveTombstonesLocked() {
		dx.mu.Unlock()
		return
	}
	dead := dx.dead.Clone()
	dx.mu.Unlock()

	start := time.Now()
	merged := mergeSources(len(dx.pairs), colSources(segs), &dead)
	rows := 0
	if merged != nil {
		rows = merged.len()
	}
	mCompactAll.Inc(dx.stripe)
	mCompactRows.Add(dx.stripe, uint64(rows))
	mCompactDur.Observe(dx.stripe, uint64(time.Since(start)))
	obs.RecordEvent("compact.all", int64(rows), int64(len(segs)))

	dx.mu.Lock()
	// The snapshotted segments are still the prefix of the list: merges
	// are serialized by mergeMu (held), and freezes only append. Keep
	// everything appended since the snapshot.
	rest := dx.segments[len(segs):]
	if merged != nil {
		dx.segments = append([]*segment{merged}, rest...)
	} else {
		dx.segments = append([]*segment(nil), rest...)
	}
	dx.mu.Unlock()
}

// compactGC is the bottom-level merge of the leveled policy: fold every
// layer into one segment exactly like Compact, then renumber the
// survivors through a dense id space 0..S-1 (their relative — insertion —
// order is preserved, so the result matches a static rebuild over the
// survivors id for id), rebuild the tombstone bitmap at the new size, and
// remap the external-key table. Layers that accumulated while the merge
// built (ids assigned after the pin) shift down by the number of dropped
// rows; segments are renumbered via copies, so snapshots pinned under the
// old id space stay consistent. When any row is dropped the mutation epoch
// advances — ids changed, so epoch-based staleness checks (and caches
// keyed on ids) correctly observe the GC.
func (dx *shard[P]) compactGC() {
	dx.mergeMu.Lock()
	defer dx.mergeMu.Unlock()

	dx.mu.Lock()
	dx.freezeLocked(false)
	segs := dx.segments
	snapBound := len(dx.points)
	// Fast path: one dense segment covering every id, no tombstones — the
	// GC would be an identity rewrite.
	if dx.dead.Count() == 0 && (len(segs) == 0 || (len(segs) == 1 && segs[0].len() == snapBound)) {
		dx.mu.Unlock()
		return
	}
	dead := dx.dead.Clone()
	points := dx.points
	dx.mu.Unlock()

	start := time.Now()
	// Off-lock: concatenate the retained columns, dropping rows dead at
	// pin time (zero hash evaluations), then rebase the survivors onto the
	// dense id space.
	srcs := colSources(segs)
	mergedRows := 0
	for _, s := range segs {
		mergedRows += s.len()
	}
	merged := mergeSources(len(dx.pairs), srcs, &dead)

	// For a durable index, the WAL record of this renumbering must carry
	// the exact dropped-id set: replay-time tombstone state includes
	// deletes that landed after this pin, so snapBound+delta alone would
	// not reproduce the same drop decisions.
	var droppedIDs []int32
	if dx.store != nil {
		for _, s := range srcs {
			for _, id := range s.ids {
				if dead.Get(int(id)) {
					droppedIDs = append(droppedIDs, id)
				}
			}
		}
	}

	var surv []int32 // survivors' old ids, strictly ascending
	var newSeg *segment
	var newPoints []P
	if merged != nil {
		surv = merged.globalIDs
		newPoints = make([]P, len(surv))
		denseIDs := make([]int32, len(surv))
		for j, old := range surv {
			newPoints[j] = points[old]
			denseIDs[j] = int32(j)
		}
		newSeg = &segment{tables: merged.tables, keys: merged.keys, globalIDs: denseIDs}
	}
	dropped := mergedRows - len(surv)
	delta := int32(len(surv) - snapBound) // shift for every id assigned after the pin

	// The swap renumbers visible ids, so it counts as a write for the
	// epoch barrier: holding the barrier shared keeps a concurrent
	// epoch-barrier Snapshot from pinning shards on both sides of a GC.
	dx.barrier.RLock()
	defer dx.barrier.RUnlock()
	dx.mu.Lock()
	defer dx.mu.Unlock()

	// Rebase the post-pin tail of the points array onto the dense prefix.
	tailLen := len(dx.points) - snapBound
	dx.points = append(newPoints, dx.points[snapBound:]...)

	// Renumber the layers appended since the pin (all their ids are >=
	// snapBound: freezes since the pin only carry post-pin inserts).
	// Segments are copied, not edited in place: pinned snapshots keep the
	// originals. The live memtable is never pinned, so it shifts in place.
	rest := dx.segments[len(segs):]
	swapped := make([]*segment, 0, 1+len(rest))
	if newSeg != nil {
		swapped = append(swapped, newSeg)
	}
	for _, s := range rest {
		swapped = append(swapped, s.withShiftedIDs(delta))
	}
	dx.segments = swapped
	dx.mem.shiftIDs(delta)

	// Rebuild the tombstone bitmap in the new id space: survivors deleted
	// during the merge keep their (translated) bits, dropped rows lose
	// theirs, and the words beyond the new id bound are released.
	oldBytes := dx.dead.Bytes()
	var newDead bitvec.Bitmap
	if dx.dead.Count() != dead.Count() { // deletes landed during the merge
		for j, old := range surv {
			if dx.dead.Get(int(old)) {
				newDead.Set(j)
			}
		}
		for old := snapBound; old < snapBound+tailLen; old++ {
			if dx.dead.Get(old) {
				newDead.Set(old + int(delta))
			}
		}
	}
	reclaim := oldBytes - newDead.Bytes()
	if reclaim > 0 {
		dx.gcReclaimedBytes += reclaim
		mGCReclaimed.Add(dx.stripe, uint64(reclaim))
	}
	dx.dead = newDead
	dx.gcCollected += dropped
	mCompactGC.Inc(dx.stripe)
	mCompactRows.Add(dx.stripe, uint64(len(surv)))
	mGCCollected.Add(dx.stripe, uint64(dropped))
	mCompactDur.Observe(dx.stripe, uint64(time.Since(start)))
	obs.RecordEvent("gc", int64(dropped), int64(reclaim))

	// Remap the external-key table: keyed rows inserted after the pin
	// shift, keyed survivors take their dense rank, and entries orphaned
	// on dropped rows (deleted by id rather than by key) are purged. The
	// guard is dropped-OR-shifted, not dropped alone: if an earlier merge
	// ever removed a row without renumbering (an id hole), this fold still
	// shifts every higher id even though it dropped nothing itself.
	if dropped > 0 || delta != 0 {
		if dx.store != nil {
			dx.store.logGCRemap(int32(snapBound), delta, droppedIDs)
		}
		for k, v := range dx.keyed {
			switch {
			case int(v) >= snapBound:
				dx.keyed[k] = v + delta
			default:
				if j := rankOf(surv, v); j >= 0 {
					dx.keyed[k] = int32(j)
				} else {
					delete(dx.keyed, k)
				}
			}
		}
		// Ids changed: advance the epoch so snapshots and caches keyed on
		// ids observe the renumbering as a mutation.
		dx.epoch++
	}
}

// rankOf returns the index of id in the strictly ascending slice ids, or
// -1 when absent.
func rankOf(ids []int32, id int32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return lo
	}
	return -1
}

// compactLeveledStep runs one automatic step of the leveled policy and
// reports whether it did productive work. It triggers the bottom-level GC
// merge when the upper tier has grown to 1/growthFactor of the bottom
// segment or dead rows have reached 1/growthFactor of the live count;
// otherwise it folds the upper segments (everything above the bottom one)
// into a single level-1 segment.
func (dx *shard[P]) compactLeveledStep() bool {
	dx.mu.RLock()
	segs := dx.segments
	live := dx.live
	rows := dx.mem.len()
	for _, s := range segs {
		rows += s.len()
	}
	dx.mu.RUnlock()
	if len(segs) == 0 {
		return false
	}
	bottom := segs[0].len()
	upper := 0
	for _, s := range segs[1:] {
		upper += s.len()
	}
	if upper*growthFactor >= bottom || (rows-live)*growthFactor >= live+1 {
		dx.compactGC()
		return true
	}
	return dx.compactUpperStep()
}

// compactUpperStep folds every segment above the bottom one into a single
// level-1 segment and reports whether a merge happened (false with fewer
// than two upper segments). The memtable is left alone — freezes, not
// merges, are responsible for it.
//
// Unlike the other merge steps, an upper fold is strictly id-preserving:
// tombstoned rows are retained, not dropped. Dropping them here once
// created id holes that the bottom-level GC could not see — its dropped
// count came out zero while the dense renumbering still shifted every
// higher id, so the external-key table was left pointing at out-of-range
// ids (the bug pinned by TestReproGCHoleRenumbering). Dead rows therefore
// live until the bottom fold, which drops and renumbers them atomically.
func (dx *shard[P]) compactUpperStep() bool {
	dx.mergeMu.Lock()
	defer dx.mergeMu.Unlock()

	dx.mu.RLock()
	segs := dx.segments
	dx.mu.RUnlock()

	if len(segs) < 3 {
		return false
	}
	start := time.Now()
	var noDead bitvec.Bitmap // keep every row: upper merges never drop
	merged := mergeSources(len(dx.pairs), colSources(segs[1:]), &noDead)
	rows := 0
	if merged != nil {
		rows = merged.len()
	}
	mCompactUpper.Inc(dx.stripe)
	mCompactRows.Add(dx.stripe, uint64(rows))
	mCompactDur.Observe(dx.stripe, uint64(time.Since(start)))
	obs.RecordEvent("compact.upper", int64(rows), int64(len(segs)-1))

	dx.mu.Lock()
	// segs still occupies the prefix of dx.segments: rewrites are
	// serialized by mergeMu (held) and concurrent freezes only append.
	rest := dx.segments[len(segs):]
	swapped := make([]*segment, 0, 2+len(rest))
	swapped = append(swapped, segs[0])
	if merged != nil {
		swapped = append(swapped, merged)
	}
	swapped = append(swapped, rest...)
	dx.segments = swapped
	dx.mu.Unlock()
	return true
}

// segmentsHaveTombstonesLocked reports whether any frozen segment still
// holds a tombstoned point (making a single-segment merge worthwhile).
// Callers hold mu.
func (dx *shard[P]) segmentsHaveTombstonesLocked() bool {
	if dx.dead.Count() == 0 {
		return false
	}
	for _, seg := range dx.segments {
		for _, id := range seg.globalIDs {
			if dx.dead.Get(int(id)) {
				return true
			}
		}
	}
	return false
}
