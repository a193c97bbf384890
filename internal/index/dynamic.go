package index

import (
	"sync"
	"time"

	"dsh/internal/bitvec"
	"dsh/internal/core"
	"dsh/internal/obs"
)

// DynamicOptions configures every shard of a ShardedIndex.
type DynamicOptions struct {
	// MemtableThreshold is the number of buffered inserts after which the
	// memtable is automatically frozen into a segment (<= 0 means the
	// default of 1024).
	MemtableThreshold int
	// MaxSegments is the segment count above which the background
	// compactor (when enabled) merges segments according to Policy
	// (<= 0 means the default of 8). Explicit Compact calls always merge
	// everything.
	MaxSegments int
	// BackgroundCompaction starts a goroutine that merges segments when
	// their count exceeds MaxSegments after a freeze. Call Close to stop
	// it. Queries remain race-free during background merges: a merge
	// builds against an immutable snapshot and swaps it in under the
	// structural lock, and all merges are serialized.
	BackgroundCompaction bool
	// Policy selects how merges treat tombstones: CompactAll folds
	// everything into one segment and keeps ids stable, CompactLeveled
	// folds fresh segments into an upper tier and garbage-collects
	// tombstones in its bottom-level merges — dead ids are dropped
	// permanently, survivors are renumbered through a dense shrinking id
	// space, and the tombstone bitmap is compacted (see CompactLeveled for
	// the id-stability caveat). Explicit Compact calls merge everything
	// regardless of policy (performing the GC under CompactLeveled).
	Policy CompactionPolicy
}

func (o DynamicOptions) withDefaults() DynamicOptions {
	if o.MemtableThreshold <= 0 {
		o.MemtableThreshold = 1024
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = 8
	}
	return o
}

// shard is the mutable, LSM-style store of one ShardedIndex shard: a
// small map-layout memtable absorbs fresh inserts, immutable flat-table
// segments hold frozen points, and a tombstone bitmap records deletes,
// consulted during candidate iteration. The L repetition draws (h_i, g_i)
// are the owning index's, shared by every shard and every layer, so a
// query hashes once per repetition and probes every layer with the same
// key — the collision-probability semantics of the family are exactly
// those of a static Index over the live points.
//
// Every point keeps a stable shard-local id, assigned by Insert in
// increasing order (the initial points get ids 0..len-1) and preserved
// across freezes and merges. Layers are kept in ascending id order
// (segments oldest first, then the live memtable), so the per-repetition
// candidate stream walks live points in exactly the order a static Index
// over them would. Compact folds all frozen state back into a single flat
// segment, dropping tombstoned points from the tables; ids are never
// reused.
//
// All methods are safe for concurrent use. Locking discipline: mu (the
// structural RWMutex) guards the layer lists, the points array, and the
// tombstone bitmap — queries hold it shared for their whole read window,
// mutators hold it exclusively and briefly. Every memtable freeze builds
// its segment in place under mu, so its cost is bounded by
// MemtableThreshold. mergeMu serializes compaction merges; it is always
// acquired before mu and never held while blocking on queries, so the
// expensive merge builds run with neither queries nor inserts stalled.
type shard[P any] struct {
	// pairs are the owning index's repetition draws; Insert hashes a point
	// with every pairs[i].H.
	pairs []core.Pair[P]
	opts  DynamicOptions

	// mu guards every field below it. Queries hold it shared; Insert,
	// Delete and the structural swaps of freezes and merges hold it
	// exclusively.
	mu sync.RWMutex
	// points holds every point ever inserted, indexed by id. It is
	// append-only: elements below len are immutable, so merges and pins
	// can read copies of the slice header without holding mu.
	points   []P
	segments []*segment
	mem      *memtable
	// dead is the tombstone bitmap over ids. Bits are set by Delete and
	// never cleared in place: after a merge drops a point from the tables
	// its bit is simply never consulted again, and keeping it set makes
	// double-Delete detection trivial. Only the leveled GC replaces the
	// bitmap wholesale, rebuilt over the compacted id space.
	dead bitvec.Bitmap
	live int
	// keyed maps an external key to the id of its newest version; nil
	// until the first InsertKeyed. Entries always point at the latest
	// insert under the key — upserts tombstone the previous id in the same
	// critical section — and the leveled GC renumbers them alongside the
	// rows.
	keyed map[uint64]int32
	// epoch counts visible mutations (Insert and successful Delete). Pins
	// capture it, so epoch comparison detects staleness; structural
	// rewrites (freezes, merges) preserve the live set and do not advance
	// it — except a leveled GC merge that drops rows, which renumbers ids
	// and therefore advances the epoch once.
	epoch uint64
	// gcCollected and gcReclaimedBytes accumulate what leveled GC merges
	// have permanently dropped; surfaced via GCStats.
	gcCollected      int
	gcReclaimedBytes int

	// barrier is the owning ShardedIndex's epoch barrier: every visible
	// mutation (Insert, InsertKeyed, Delete, DeleteKeyed) and every
	// id-renumbering GC swap holds it shared, so the index's Snapshot can
	// quiesce all shards at one instant by holding it exclusively.
	barrier *sync.RWMutex

	// mergeMu serializes compaction merges; see the type comment.
	mergeMu sync.Mutex

	// keyBufs pools the per-insert data-side key scratch ([]uint64 of
	// length L, boxed to avoid an interface allocation per Get/Put) so the
	// steady-state insert path performs no heap allocations.
	keyBufs sync.Pool

	// compactCh nudges the background compactor; nil when disabled.
	compactCh chan struct{}
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// store is the durability attachment (WAL + segment files + manifest);
	// nil for a purely in-memory shard. Mutators call its log methods
	// inside their mu critical sections, so WAL order is apply order.
	store *store[P]

	// stripe is this shard's metrics stripe, drawn once at construction,
	// so shards record write-path metrics onto distinct counter cache
	// lines.
	stripe uint32
}

// newShard builds a shard over the initial points (which become one
// frozen segment with ids 0..len-1) and starts its background compactor
// when the options ask for one.
func newShard[P any](pairs []core.Pair[P], barrier *sync.RWMutex, points []P, opts DynamicOptions) *shard[P] {
	dx := newShardShell(pairs, barrier, opts)
	dx.points = append([]P(nil), points...)
	dx.live = len(points)
	if len(dx.points) > 0 {
		ids := make([]int32, len(dx.points))
		for i := range ids {
			ids[i] = int32(i)
		}
		dx.segments = []*segment{buildSegment(dx.pairs, dx.points, ids)}
	}
	dx.startCompactor()
	return dx
}

// newShardShell builds an empty shard without starting the background
// compactor — the shared skeleton of every constructor. Durable recovery
// needs the split: replay must finish (single-threaded, unpublished)
// before any goroutine can touch the shard.
func newShardShell[P any](pairs []core.Pair[P], barrier *sync.RWMutex, opts DynamicOptions) *shard[P] {
	dx := &shard[P]{
		pairs:   pairs,
		opts:    opts.withDefaults(),
		barrier: barrier,
		stripe:  obs.NextStripe(),
	}
	dx.mem = newMemtable(len(pairs), dx.opts.MemtableThreshold)
	dx.keyBufs.New = func() any {
		buf := make([]uint64, len(pairs))
		return &buf
	}
	return dx
}

// startCompactor starts the background compactor when the options ask for
// one. Idempotent; called once from each constructor path.
func (dx *shard[P]) startCompactor() {
	if !dx.opts.BackgroundCompaction || dx.compactCh != nil {
		return
	}
	dx.compactCh = make(chan struct{}, 1)
	dx.closed = make(chan struct{})
	dx.wg.Add(1)
	go dx.backgroundCompactor()
}

// Len returns the number of live (inserted and not deleted) points. It
// takes the structural read-lock briefly and is safe for concurrent use,
// including during compactions and freezes.
func (dx *shard[P]) Len() int {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	return dx.live
}

// Point returns the point stored under the given id. It remains
// valid for deleted ids (points are retained until their segment is
// compacted; the stored value is retained forever). It takes the
// structural read-lock briefly and is safe for concurrent use.
func (dx *shard[P]) Point(id int) P {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	return dx.points[id]
}

// Deleted reports whether id has been deleted. It takes the structural
// read-lock briefly and is safe for concurrent use.
func (dx *shard[P]) Deleted(id int) bool {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	return dx.dead.Get(id)
}

// Insert adds a point and returns its stable id. The point lands in
// the memtable; when the buffer reaches MemtableThreshold it is frozen
// into a new immutable segment (and the background compactor, if enabled,
// is nudged once the segment count exceeds MaxSegments).
//
// The L hash evaluations run before the structural lock is taken, so
// concurrent queries are blocked only for the map inserts themselves. The
// crossing Insert builds the segment inline while holding the lock — size
// MemtableThreshold to bound that stall, or call Flush at quiet moments to
// schedule it explicitly.
func (dx *shard[P]) Insert(p P) int {
	kb := dx.keyBufs.Get().(*[]uint64)
	keys := *kb
	for i, pair := range dx.pairs {
		keys[i] = pair.H.Hash(p)
	}
	dx.barrier.RLock()
	dx.mu.Lock()
	if dx.store != nil {
		dx.store.logInsert(dx, p, keys)
	}
	id, needMerge := dx.insertLocked(p, keys)
	dx.mu.Unlock()
	dx.barrier.RUnlock()
	dx.keyBufs.Put(kb)
	mInserts.Inc(dx.stripe)
	mWriteHashEvals.Add(dx.stripe, uint64(len(dx.pairs)))
	if needMerge {
		dx.nudgeCompactor()
	}
	return int(id)
}

// insertLocked appends p under a fresh id and buffers it in the memtable,
// handling the threshold crossing. Callers hold mu exclusively (and the
// barrier shared, except during recovery replay); keys are the L
// pre-computed data-side hashes of p. It reports the new id and whether
// the caller should nudge the background compactor after unlocking.
func (dx *shard[P]) insertLocked(p P, keys []uint64) (int32, bool) {
	id := int32(len(dx.points))
	dx.points = append(dx.points, p)
	dx.mem.insert(id, keys)
	dx.live++
	dx.epoch++
	if dx.mem.len() >= dx.opts.MemtableThreshold {
		return id, dx.freezeLocked(false)
	}
	return id, false
}

// InsertKeyed upserts a point under an external key and returns the id of
// the new version. When the key already maps to a live point, that
// previous version is tombstoned and the new one inserted in the same
// critical section, so queries never see both (or neither) version of a
// key. The returned id is the point's current identity for Delete/Point,
// but under CompactLeveled ids are renumbered by GC merges — the key is
// the durable handle; use LookupKey to recover the current id.
func (dx *shard[P]) InsertKeyed(key uint64, p P) int {
	kb := dx.keyBufs.Get().(*[]uint64)
	keys := *kb
	for i, pair := range dx.pairs {
		keys[i] = pair.H.Hash(p)
	}
	dx.barrier.RLock()
	dx.mu.Lock()
	if dx.store != nil {
		dx.store.logInsertKeyed(dx, key, p, keys)
	}
	if old, ok := dx.keyed[key]; ok && !dx.dead.Get(int(old)) {
		dx.dead.Set(int(old))
		dx.live--
		dx.epoch++
	}
	id, needMerge := dx.insertLocked(p, keys)
	if dx.keyed == nil {
		dx.keyed = make(map[uint64]int32)
	}
	dx.keyed[key] = id
	dx.mu.Unlock()
	dx.barrier.RUnlock()
	dx.keyBufs.Put(kb)
	mUpserts.Inc(dx.stripe)
	mWriteHashEvals.Add(dx.stripe, uint64(len(dx.pairs)))
	if needMerge {
		dx.nudgeCompactor()
	}
	return int(id)
}

// DeleteKeyed tombstones the newest version of the point inserted under
// key, reporting whether a live version existed. The key's mapping is
// removed either way, so a later InsertKeyed under the same key starts
// fresh.
func (dx *shard[P]) DeleteKeyed(key uint64) bool {
	dx.barrier.RLock()
	defer dx.barrier.RUnlock()
	dx.mu.Lock()
	defer dx.mu.Unlock()
	id, ok := dx.keyed[key]
	if !ok {
		return false
	}
	if dx.store != nil {
		dx.store.logDeleteKeyed(key)
	}
	delete(dx.keyed, key)
	if dx.dead.Get(int(id)) {
		return false
	}
	dx.dead.Set(int(id))
	dx.live--
	dx.epoch++
	mDeletesKeyed.Inc(dx.stripe)
	return true
}

// LookupKey returns the current id of the live point inserted under
// key, if any. Under CompactLeveled the id is only guaranteed current
// until the next GC merge; re-resolve after observing an Epoch change.
func (dx *shard[P]) LookupKey(key uint64) (int, bool) {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	id, ok := dx.keyed[key]
	if !ok || dx.dead.Get(int(id)) {
		return 0, false
	}
	return int(id), true
}

// Delete tombstones the point with the given id, reporting whether
// it was live. The point disappears from query results immediately and
// from the underlying tables at the next merge covering its segment.
func (dx *shard[P]) Delete(id int) bool {
	dx.barrier.RLock()
	defer dx.barrier.RUnlock()
	dx.mu.Lock()
	defer dx.mu.Unlock()
	if id < 0 || id >= len(dx.points) || dx.dead.Get(id) {
		return false
	}
	if dx.store != nil {
		dx.store.logDelete(int32(id))
	}
	dx.dead.Set(id)
	dx.live--
	dx.epoch++
	mDeletes.Inc(dx.stripe)
	return true
}

// GCStats reports the shard's tombstone occupancy and leveled-GC progress.
// It takes the structural read-lock briefly and is safe for concurrent
// use; DeadRows is exact at that instant (rows still in some layer's
// tables minus the live count).
func (dx *shard[P]) GCStats() GCStats {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	rows := dx.mem.len()
	for _, s := range dx.segments {
		rows += s.len()
	}
	return GCStats{
		LiveRows:             dx.live,
		DeadRows:             rows - dx.live,
		BitmapBytes:          dx.dead.Bytes(),
		CollectedRows:        dx.gcCollected,
		ReclaimedBitmapBytes: dx.gcReclaimedBytes,
	}
}

// Epoch returns the shard's mutation epoch: a counter advanced by every
// Insert and every successful Delete (structural rewrites — freezes,
// merges — preserve the live set and do not advance it, except a leveled
// GC merge that drops rows, which renumbers ids and advances it once).
// Comparing it with a pin's epoch tells whether the pin is stale. Epoch
// takes the structural read-lock briefly and is safe for concurrent
// use.
func (dx *shard[P]) Epoch() uint64 {
	dx.mu.RLock()
	defer dx.mu.RUnlock()
	return dx.epoch
}

// freezeLocked turns a non-empty memtable into a new segment in place and
// reports whether the caller should nudge the background compactor after
// unlocking. bySnapshot marks the freezes a pin forces, counted in
// dsh_freezes_async_total; every other freeze counts as inline. Callers
// hold mu exclusively.
func (dx *shard[P]) freezeLocked(bySnapshot bool) bool {
	rows := dx.mem.len()
	if rows == 0 {
		return false
	}
	start := time.Now()
	dx.segments = append(dx.segments, dx.mem.freeze())
	mFreezeBuild.Observe(dx.stripe, uint64(time.Since(start)))
	mFrozenRows.Add(dx.stripe, uint64(rows))
	if bySnapshot {
		mFreezesSnapshot.Inc(dx.stripe)
		obs.RecordEvent("freeze.snapshot", int64(rows), int64(len(dx.segments)))
	} else {
		mFreezesInline.Inc(dx.stripe)
		obs.RecordEvent("freeze.inline", int64(rows), int64(len(dx.segments)))
	}
	dx.freshMemtableLocked()
	return dx.compactCh != nil && len(dx.segments) > dx.opts.MaxSegments
}

// freshMemtableLocked replaces the live memtable with an empty one; on a
// durable shard the replacement is stamped with the current WAL end, the
// position of the first record it could ever buffer. Callers hold mu
// exclusively. During durable replay (store still nil) the stamp is
// deferred: the first replayed row carries its own log position.
func (dx *shard[P]) freshMemtableLocked() {
	dx.mem = newMemtable(len(dx.pairs), dx.opts.MemtableThreshold)
	if dx.store != nil {
		dx.mem.walStart = dx.store.wal.End()
	}
}

// Flush freezes the memtable into a segment immediately, regardless of
// the threshold. Useful before read-heavy phases: frozen probes are
// cheaper than map probes.
func (dx *shard[P]) Flush() {
	dx.mu.Lock()
	needMerge := dx.freezeLocked(false)
	dx.mu.Unlock()
	if needMerge {
		dx.nudgeCompactor()
	}
}

// nudgeCompactor pokes the background compactor without blocking.
func (dx *shard[P]) nudgeCompactor() {
	select {
	case dx.compactCh <- struct{}{}:
	default:
	}
}

// appendCandidates appends the live ids colliding with key in repetition
// rep, oldest layer first, and returns the extended slice plus the number
// of layers probed. The caller holds mu shared for the whole query.
func (dx *shard[P]) appendCandidates(rep int, key uint64, dst []int32) ([]int32, int) {
	dst, probes := appendSegmentCandidates(dx.segments, &dx.dead, rep, key, dst)
	if dx.mem.len() > 0 {
		probes++
		mem := dx.mem
		for j := mem.bucketHead(rep, key); j >= 0; j = mem.chains[rep][j] {
			if id := mem.ids[j]; !dx.dead.Get(int(id)) {
				dst = append(dst, id)
			}
		}
	}
	return dst, probes
}

// backgroundCompactor merges segments whenever a freeze pushes the count
// past MaxSegments, following opts.Policy. It runs until Close.
func (dx *shard[P]) backgroundCompactor() {
	defer dx.wg.Done()
	for {
		select {
		case <-dx.closed:
			return
		case <-dx.compactCh:
			dx.autoCompact()
		}
	}
}

// autoCompact applies the configured policy until the segment count is
// within MaxSegments or the policy has no productive merge left.
func (dx *shard[P]) autoCompact() {
	for {
		dx.mu.RLock()
		over := len(dx.segments) > dx.opts.MaxSegments
		dx.mu.RUnlock()
		if !over {
			return
		}
		if dx.opts.Policy == CompactLeveled {
			if !dx.compactLeveledStep() {
				return
			}
		} else {
			dx.Compact()
		}
	}
}

// Close stops the background compactor, if one was started, and — for a
// durable shard — seals the on-disk state: the memtable is frozen, a
// final checkpoint (segments + manifest) is written, and the WAL is
// synced and closed. After a clean Close, OpenSharded recovers the exact
// live set without replaying any log tail.
//
// Close is idempotent and safe to call concurrently with queries and
// mutations (concurrent Close calls seal exactly once). Mutations that
// land after the seal are in-memory only and latch ErrNotJournaled in
// DurableErr. Durable failures during the final checkpoint also surface
// via DurableErr, not from Close itself.
func (dx *shard[P]) Close() {
	if dx.compactCh != nil {
		dx.closeOnce.Do(func() {
			close(dx.closed)
			dx.wg.Wait()
		})
	}
	if dx.store != nil {
		dx.store.seal(dx)
	}
}
