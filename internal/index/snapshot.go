package index

import "dsh/internal/bitvec"

// shardSnap is one shard's pinned, immutable state inside a
// ShardedSnapshot: the segment list, the points array prefix, the live
// count, and a private clone of the tombstone bitmap as they stood when
// the shard was pinned. ShardedSnapshot reads its fields directly; it
// answers from them even while Insert, Delete, Flush and compaction
// rewrite the live shard underneath.
//
// Pinning freezes the live memtable (if non-empty) into a segment in
// place — one flat-table build from its retained keys, bounded by
// MemtableThreshold — and then just pins slice headers plus a bitmap
// clone; no point is copied or rehashed. The freeze does mean every pin
// that finds buffered inserts cuts a new (possibly tiny) segment, so a
// high snapshot cadence over a trickle of writes fragments the shard —
// each query pays one extra probe per repetition per extra segment until
// a merge folds them. The serving edge has exactly that cadence (it
// re-pins after every write a query follows), so every served index runs
// with BackgroundCompaction on (serve.StoreOptions); any other caller
// that pins that often should enable it too, or Compact at quiet
// moments. Reclamation is by reference: segments swapped out by later
// compactions stay reachable from the pins that hold them and are
// garbage-collected when the last such pin is released.
type shardSnap[P any] struct {
	// points is a pinned header of the shard's append-only points array;
	// elements below idBound are immutable.
	points  []P
	idBound int
	// segments are the pinned storage layers, oldest first.
	segments []*segment
	// dead is a private clone of the tombstone bitmap: later Deletes on
	// the live shard do not affect this pin.
	dead bitvec.Bitmap
	live int
	// epoch is the shard's mutation epoch at pin time; ShardedIndex's
	// Snapshot compares it with its mark to verify the single instant.
	epoch uint64
}

// pin returns an immutable view of the shard's current live points. The
// call takes the structural lock exclusively: it freezes the live
// memtable (if non-empty) into a segment in place, clones the tombstone
// bitmap, and pins the segment list. No points are copied or rehashed.
func (dx *shard[P]) pin() *shardSnap[P] {
	dx.mu.Lock()
	needMerge := dx.freezeLocked(true)
	snap := &shardSnap[P]{
		points:   dx.points[:len(dx.points):len(dx.points)],
		idBound:  len(dx.points),
		segments: dx.segments[:len(dx.segments):len(dx.segments)],
		dead:     dx.dead.Clone(),
		live:     dx.live,
		epoch:    dx.epoch,
	}
	dx.mu.Unlock()
	if needMerge {
		dx.nudgeCompactor()
	}
	mSnapshots.Inc(dx.stripe)
	mSnapshotsOpen.Add(1)
	mSnapshotEpoch.Set(int64(snap.epoch))
	return snap
}

// release drops the pin's references to the shard's layers so segments
// rewritten by later compactions can be garbage-collected. The owning
// ShardedSnapshot calls it exactly once.
func (s *shardSnap[P]) release() {
	mSnapshotsOpen.Add(-1)
	s.points = nil
	s.segments = nil
	s.dead = bitvec.Bitmap{}
}
