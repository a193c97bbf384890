package index

import (
	"sync/atomic"

	"dsh/internal/bitvec"
)

// Snapshot is an immutable, point-in-time view of a DynamicIndex: the
// segment list, the points array prefix, the live count, and a private
// clone of the tombstone bitmap as they stood at the moment
// DynamicIndex.Snapshot returned. A snapshot implements the
// candidateSource contract, so every veneer — annulus search, range
// reporting, CollectDistinct, QueryBatch — runs over it unchanged and
// answers from the pinned state even while Insert, Delete, Flush and
// compaction rewrite the live index underneath. That makes long-running
// scans consistent: a query stream over one snapshot observes one id set,
// start to finish.
//
// Taking a snapshot freezes the live memtable (if non-empty) into a
// segment in place — one flat-table build from its retained keys, bounded
// by MemtableThreshold — and then just pins slice headers plus a bitmap
// clone; no point is copied or rehashed. The freeze does mean every
// snapshot that finds buffered inserts cuts a new (possibly tiny) segment,
// so a high snapshot cadence over a trickle of writes fragments the index
// — each query pays one extra probe per repetition per extra segment
// until a merge folds them; enable BackgroundCompaction (or Compact at
// quiet moments) under such workloads. Reclamation is by reference:
// segments swapped out by later compactions stay reachable from the
// snapshots whose epoch pinned them and are garbage-collected when the
// last such snapshot is released.
//
// Concurrency contract: a Snapshot is immutable and safe for unrestricted
// concurrent querying with no locking at all — beginRead is free, like
// the static Index. Release is the only mutating method; after it,
// queries panic. A Snapshot never blocks and is never blocked by the
// live index's locks.
type Snapshot[P any] struct {
	readPath[P]
	// points is a pinned header of the index's append-only points array;
	// elements below idBound are immutable.
	points  []P
	idBound int
	// segments are the pinned storage layers, oldest first.
	segments []*segment
	// dead is a private clone of the tombstone bitmap: later Deletes on
	// the live index do not affect this snapshot.
	dead bitvec.Bitmap
	live int
	// epoch is the mutation epoch captured from the index; compare with
	// DynamicIndex.Epoch to detect staleness.
	epoch uint64

	released atomic.Bool
}

// Snapshot returns an immutable view of the index's current live points.
// The call takes the structural lock exclusively: it freezes the live
// memtable (if non-empty) into a segment in place, clones the tombstone
// bitmap, and pins the segment list. No points are copied or rehashed.
//
// The returned snapshot answers queries from exactly the live set at the
// moment of the call, concurrently with any later mutation or compaction
// of the index. Safe for concurrent use with every other method. Each
// call that finds buffered inserts cuts a new segment (see the Snapshot
// type comment for the fragmentation trade-off under high snapshot
// cadence).
func (dx *DynamicIndex[P]) Snapshot() *Snapshot[P] {
	dx.mu.Lock()
	needMerge := dx.freezeLocked(true)
	snap := &Snapshot[P]{
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
	snap.bind(snap, dx.pairs, dx.negG)
	mSnapshots.Inc(dx.stripe)
	mSnapshotsOpen.Add(1)
	mSnapshotEpoch.Set(int64(snap.epoch))
	return snap
}

// Len returns the number of live points visible to the snapshot.
func (s *Snapshot[P]) Len() int { return s.live }

// Epoch returns the mutation epoch the snapshot was taken at; it equals
// DynamicIndex.Epoch while no Insert or Delete has landed since.
func (s *Snapshot[P]) Epoch() uint64 { return s.epoch }

// Deleted reports whether id was tombstoned at snapshot time. Deletes on
// the live index after the snapshot are not visible; ids outside the
// pinned range (including negative ids) report false. Panics after
// Release.
func (s *Snapshot[P]) Deleted(id int) bool {
	s.check()
	return s.dead.Get(id)
}

// Point returns the point stored under the given global id at snapshot
// time. Like DynamicIndex.Point it remains valid for deleted ids.
func (s *Snapshot[P]) Point(id int) P {
	s.check()
	return s.points[id]
}

// Release drops the snapshot's references to the pinned layers so
// segments rewritten by later compactions can be garbage-collected.
// Queries on a released snapshot panic. Releasing is optional — an
// unreferenced snapshot is reclaimed by the garbage collector anyway —
// but explicit release bounds the lifetime of large pinned segments in
// long-lived processes. Release is idempotent and safe for concurrent
// use, but must not run concurrently with queries on the same snapshot.
func (s *Snapshot[P]) Release() {
	if s.released.Swap(true) {
		return
	}
	mSnapshotsOpen.Add(-1)
	s.points = nil
	s.segments = nil
	s.dead = bitvec.Bitmap{}
}

// check panics when the snapshot has been released.
func (s *Snapshot[P]) check() {
	if s.released.Load() {
		panic("index: use of released Snapshot")
	}
}

// candidateSource implementation. Every pinned layer is immutable, so the
// read window is free (beginRead takes no lock) and any number of
// goroutines may query concurrently.

func (s *Snapshot[P]) beginRead() int {
	s.check()
	return s.idBound
}

func (s *Snapshot[P]) endRead() {}

func (s *Snapshot[P]) srcPoint(id int) P { return s.points[id] }

func (s *Snapshot[P]) appendCandidates(rep int, key uint64, dst []int32) ([]int32, int) {
	probes := 0
	for _, seg := range s.segments {
		probes++
		for _, local := range seg.lookup(rep, key) {
			if id := seg.globalIDs[local]; !s.dead.Get(int(id)) {
				dst = append(dst, id)
			}
		}
	}
	return dst, probes
}

// AppendLiveIDs appends every live global id visible to the snapshot to
// dst in ascending order and returns the extended slice — the scan
// primitive: iterate the pinned id space once, with no locking, while the
// live index keeps mutating.
func (s *Snapshot[P]) AppendLiveIDs(dst []int) []int {
	s.check()
	for id := 0; id < s.idBound; id++ {
		if !s.dead.Get(id) {
			dst = append(dst, id)
		}
	}
	return dst
}
