package index

import (
	"sync"
	"sync/atomic"

	"dsh/internal/core"
	"dsh/internal/obs"
	"dsh/internal/xrand"
)

// Routing selects how a ShardedIndex assigns inserts to shards; see the
// constants.
type Routing int

const (
	// RouteRoundRobin routes plain Inserts to shards in rotation via an
	// atomic cursor: the id mapping stays purely arithmetic, shard sizes
	// stay balanced within one point, and global ids stay dense under
	// single-writer ingest. InsertKeyed panics under this routing — a key
	// must always resolve to the same shard, which rotation cannot
	// guarantee.
	RouteRoundRobin Routing = iota
	// RouteHash routes by external key: InsertKeyed (and DeleteKeyed,
	// LookupKey) sends key k to shard mix(k) mod K, where mix is a
	// splitmix64-style finalizer, so every version of a key lives on one
	// shard and re-inserting a key is an atomic upsert under that single
	// shard's lock. Plain Insert panics under this routing — unkeyed
	// points have no stable home shard.
	RouteHash
)

// ShardOptions configures a ShardedIndex.
type ShardOptions struct {
	// Shards is the number of independent shards. It must be positive;
	// NewSharded panics otherwise. One shard is a single LSM store whose
	// ids and candidate order are a static Index's. More shards means more
	// mutation concurrency (inserts and deletes on different shards never
	// contend on a lock) at the cost of one extra probe per repetition per
	// shard on the query path.
	Shards int
	// Routing selects the insert-routing discipline: RouteRoundRobin (the
	// zero value) serves plain Insert, RouteHash serves InsertKeyed. The
	// two are mutually exclusive per index — see the Routing constants.
	Routing Routing
	// Dynamic is applied to every shard: each gets its own memtable
	// threshold, segment budget, compaction policy and — when
	// BackgroundCompaction is set — its own background compactor
	// goroutine, so compactions of different shards run concurrently.
	Dynamic DynamicOptions
}

// ShardedIndex is the mutable, LSM-style serving core: K independent
// shards, each with its own memtable, flat-table segments, tombstone
// bitmap and compaction policy — and, crucially, its own locks — so
// mutations on different shards never contend. A memtable absorbs fresh
// inserts, a full one freezes into an immutable segment in place, and
// deletes are recorded as tombstones consulted during candidate
// iteration; segments retain their hash-key columns, so every merge (see
// CompactionPolicy) moves memory instead of re-evaluating hash functions.
// Compact folds each shard into one flat segment, after which
// steady-state queries through a Querier allocate nothing. Points are
// partitioned by global id: id g lives on shard g mod K at shard-local
// position g div K. Under RouteRoundRobin (the default) plain Inserts
// rotate across shards, which keeps that mapping purely arithmetic (no
// routing table) and keeps shard sizes balanced within one point; under
// RouteHash, InsertKeyed routes by a hash of the external key, so every
// version of a key lives on one shard and upserts are atomic under that
// shard's lock.
//
// All shards share the same L repetition draws (h_i, g_i), sampled once
// by NewSharded, so a query hashes once per repetition and probes every
// shard with that key: the collision-probability semantics are exactly
// those of a static Index over the same live points, and every
// order-independent query result coincides — full-scan candidate sets,
// the Candidates/Distinct counters of CollectDistinct, and range
// reporting's ids and counters. Candidate order is shard-major instead
// of global-id-major, so order-sensitive outcomes (the first max ids of
// a truncated collection, the annulus scan's hit and its early-
// termination counters) may pick different representatives, and Probes
// grows with the layer count across all shards. With one shard, global
// ids are the shard's ids and the candidate order is a static Index's.
//
// ShardedIndex implements the candidateSource contract, so the
// AnnulusIndex and RangeReporter veneers (NewAnnulusOver,
// NewRangeReporterOver), CollectDistinct, Candidates and the QueryBatch
// engine run over it unchanged. Each query probes every shard under one
// consistent read window, and its QueryStats merge the work of all
// shards — Probes counts bucket lookups across every shard's every layer.
//
// Concurrency contract: all methods are safe for concurrent use. A query
// holds every shard's structural read-lock (acquired in shard order) for
// its read window, so each query sees one consistent state per shard;
// mutators touch exactly one shard. Snapshot pins a point-in-time view of
// every shard for lock-free scans. After Close, Insert, InsertKeyed and
// Snapshot panic; queries and deletes on the existing data remain valid.
type ShardedIndex[P any] struct {
	readPath[P]
	shards  []*shard[P]
	routing Routing
	// cursor routes inserts round-robin; it continues from the initial
	// point count so global ids stay dense under single-writer ingest.
	cursor atomic.Uint64
	closed atomic.Bool

	// barrier is the epoch barrier behind the single-instant Snapshot:
	// every shard mutation (and every id-renumbering GC swap) holds it
	// shared via shard.barrier, and Snapshot's fallback path holds
	// it exclusively to quiesce all shards at once. The optimistic
	// snapshot path never takes it, so mutators pay only an uncontended
	// RLock in the common case.
	barrier sync.RWMutex

	// stripe is this index's metrics stripe for the snapshot-barrier
	// counters, drawn once at construction.
	stripe uint32
}

// NewSharded builds a sharded dynamic index over the initial points
// (which receive global ids 0..len-1, point i landing on shard i mod K)
// with L repetitions of the family shared by every shard. It consumes rng
// exactly like New — L Sample calls — so a sharded and a static index
// built from generators with the same seed share their repetition draws
// and return identical full-scan candidate sets over identical live
// points (candidate order is shard-major, so order-sensitive results —
// truncated collections, the annulus early-termination hit — may pick
// different representatives unless Shards is 1).
//
// NewSharded panics with a clear message when family is nil, L <= 0, or
// opts.Shards <= 0.
func NewSharded[P any](rng *xrand.Rand, family core.Family[P], L int, points []P, opts ShardOptions) *ShardedIndex[P] {
	if family == nil {
		panic("index: family must be non-nil")
	}
	if L <= 0 {
		panic("index: repetitions must be positive")
	}
	if opts.Shards <= 0 {
		panic("index: shard count must be positive")
	}
	pairs := make([]core.Pair[P], L)
	for i := range pairs {
		pairs[i] = family.Sample(rng)
	}
	K := opts.Shards
	parts := make([][]P, K)
	for i, p := range points {
		parts[i%K] = append(parts[i%K], p)
	}
	sx := newShardedShell(pairs, K, opts.Routing)
	for s := range sx.shards {
		sx.shards[s] = newShard(pairs, &sx.barrier, parts[s], opts.Dynamic)
	}
	sx.cursor.Store(uint64(len(points)))
	return sx
}

// newShardedShell allocates a ShardedIndex with K empty shard slots
// around already-sampled repetition draws, bound to its read path — the
// shared skeleton of NewSharded, NewDurableSharded and OpenSharded.
func newShardedShell[P any](pairs []core.Pair[P], K int, routing Routing) *ShardedIndex[P] {
	sx := &ShardedIndex[P]{
		shards:  make([]*shard[P], K),
		routing: routing,
		stripe:  obs.NextStripe(),
	}
	sx.bind(sx, pairs, negHashers(pairs))
	return sx
}

// Shards returns the number of shards.
func (sx *ShardedIndex[P]) Shards() int { return len(sx.shards) }

// Routing returns the insert-routing discipline the index was built with,
// so serving layers can validate mutations (plain vs keyed) before
// dispatching them instead of tripping the entry-point panics.
func (sx *ShardedIndex[P]) Routing() Routing { return sx.routing }

// Len returns the number of live points across all shards. Each shard's
// count is read under its own lock; concurrent mutators may move the
// total while it is being summed.
func (sx *ShardedIndex[P]) Len() int {
	n := 0
	for _, dx := range sx.shards {
		n += dx.Len()
	}
	return n
}

// Epoch returns the sum of the shards' mutation epochs: a monotone
// counter advanced by every Insert and successful Delete anywhere in the
// index (and by every leveled GC merge that renumbers ids). Comparing it
// with ShardedSnapshot.Epoch tells whether a snapshot is stale.
func (sx *ShardedIndex[P]) Epoch() uint64 {
	var e uint64
	for _, dx := range sx.shards {
		e += dx.Epoch()
	}
	return e
}

// Insert adds a point to the next shard in round-robin order and returns
// its stable global id (shard-local id times the shard count, plus the
// shard number). Inserts landing on different shards run fully in
// parallel: each takes only its own shard's locks. Insert panics after
// Close, and panics under RouteHash — a hash-routed index has no rotation
// cursor; use InsertKeyed.
func (sx *ShardedIndex[P]) Insert(p P) int {
	if sx.closed.Load() {
		panic("index: Insert on closed ShardedIndex")
	}
	if sx.routing == RouteHash {
		panic("index: Insert on hash-routed ShardedIndex (use InsertKeyed)")
	}
	K := len(sx.shards)
	s := int((sx.cursor.Add(1) - 1) % uint64(K))
	local := sx.shards[s].Insert(p)
	return local*K + s
}

// mixKey is a splitmix64-style finalizer spreading external keys across
// shards: sequential keys land on effectively independent shards, so hash
// routing stays balanced even under adversarially regular key streams.
func mixKey(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// keyShard returns the home shard of an external key under hash routing.
func (sx *ShardedIndex[P]) keyShard(key uint64) int {
	return int(mixKey(key) % uint64(len(sx.shards)))
}

// InsertKeyed upserts a point under an external key and returns the
// global id of the new version. The key's hash picks the home shard, so
// every version of a key lives on one shard and the upsert — tombstoning
// the previous version and inserting the new one — is atomic under that
// single shard's lock: queries never see both (or neither) version.
// Returned ids are stable until a leveled GC merge on the owning shard
// renumbers them (see CompactLeveled); the key is the durable identity and
// LookupKey recovers the current id. InsertKeyed panics after Close and
// panics under RouteRoundRobin — rotation cannot send a key back to its
// home shard.
func (sx *ShardedIndex[P]) InsertKeyed(key uint64, p P) int {
	if sx.closed.Load() {
		panic("index: InsertKeyed on closed ShardedIndex")
	}
	if sx.routing != RouteHash {
		panic("index: InsertKeyed on round-robin ShardedIndex (set ShardOptions.Routing to RouteHash)")
	}
	K := len(sx.shards)
	s := sx.keyShard(key)
	local := sx.shards[s].InsertKeyed(key, p)
	return local*K + s
}

// DeleteKeyed tombstones the newest version of the point inserted under
// key, reporting whether a live version existed. Only the key's home
// shard's lock is taken.
func (sx *ShardedIndex[P]) DeleteKeyed(key uint64) bool {
	return sx.shards[sx.keyShard(key)].DeleteKeyed(key)
}

// LookupKey returns the current global id of the live point inserted
// under key, if any. Under CompactLeveled the id is only guaranteed
// current until the next GC merge on the owning shard; re-resolve after
// observing an Epoch change.
func (sx *ShardedIndex[P]) LookupKey(key uint64) (int, bool) {
	K := len(sx.shards)
	s := sx.keyShard(key)
	local, ok := sx.shards[s].LookupKey(key)
	if !ok {
		return 0, false
	}
	return local*K + s, true
}

// GCStats sums the shards' tombstone occupancy and leveled-GC progress.
// Each shard's stats are read under its own lock; concurrent mutators may
// move the totals while they are being summed.
func (sx *ShardedIndex[P]) GCStats() GCStats {
	var total GCStats
	for _, dx := range sx.shards {
		st := dx.GCStats()
		total.LiveRows += st.LiveRows
		total.DeadRows += st.DeadRows
		total.BitmapBytes += st.BitmapBytes
		total.CollectedRows += st.CollectedRows
		total.ReclaimedBitmapBytes += st.ReclaimedBitmapBytes
	}
	return total
}

// Segments returns the number of frozen segments summed over the shards.
// Each shard's count is read under its own lock; concurrent freezes and
// merges may move the total at any moment.
func (sx *ShardedIndex[P]) Segments() int {
	n := 0
	for _, dx := range sx.shards {
		dx.mu.RLock()
		n += len(dx.segments)
		dx.mu.RUnlock()
	}
	return n
}

// MemtableLen returns the number of points buffered in the shards' live
// memtables. Each shard's count is read under its own lock.
func (sx *ShardedIndex[P]) MemtableLen() int {
	n := 0
	for _, dx := range sx.shards {
		dx.mu.RLock()
		n += dx.mem.len()
		dx.mu.RUnlock()
	}
	return n
}

// Delete tombstones the point with the given global id, reporting whether
// it was live. Only the owning shard's lock is taken.
func (sx *ShardedIndex[P]) Delete(id int) bool {
	if id < 0 {
		return false
	}
	K := len(sx.shards)
	return sx.shards[id%K].Delete(id / K)
}

// Deleted reports whether the given global id has been deleted; ids
// outside the assigned range (including negative ids) report false.
func (sx *ShardedIndex[P]) Deleted(id int) bool {
	if id < 0 {
		return false
	}
	K := len(sx.shards)
	return sx.shards[id%K].Deleted(id / K)
}

// Point returns the point stored under the given global id. It remains
// valid for deleted ids (the stored value is retained forever) and panics
// for ids never assigned.
func (sx *ShardedIndex[P]) Point(id int) P {
	if id < 0 {
		panic("index: negative point id")
	}
	K := len(sx.shards)
	return sx.shards[id%K].Point(id / K)
}

// Flush freezes every shard's memtable, shard by shard, regardless of the
// threshold. Useful before read-heavy phases: frozen probes are cheaper
// than memtable probes.
func (sx *ShardedIndex[P]) Flush() {
	for _, dx := range sx.shards {
		dx.Flush()
	}
}

// Compact compacts every shard concurrently (shards are independent, so
// their merges never contend) and returns when all have finished. After
// it, every shard answers from one flat segment and an empty memtable —
// the zero-allocation steady state. Under CompactAll ids stay stable and
// deleted points are dropped from the tables; under CompactLeveled each
// shard runs its bottom-level GC merge, which also renumbers the
// survivors (see CompactLeveled). Safe to call concurrently with queries
// and mutations.
func (sx *ShardedIndex[P]) Compact() {
	var wg sync.WaitGroup
	for _, dx := range sx.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dx.Compact()
		}()
	}
	wg.Wait()
}

// Close marks the index closed and closes every shard concurrently —
// stopping its background compactor and, for a durable index, sealing its
// on-disk state: the memtable is frozen, a final checkpoint (segments +
// manifest) is written, and the WAL is synced and closed, so OpenSharded
// recovers the exact live set without replaying any log tail. After
// Close, Insert, InsertKeyed and Snapshot panic with a clear message;
// queries and deletes over the existing data remain valid, and Compact
// remains callable — but on a durable index, mutations after Close are
// in-memory only and latch ErrNotJournaled in DurableErr. Close is
// idempotent and safe for concurrent use (concurrent calls seal each
// shard exactly once).
func (sx *ShardedIndex[P]) Close() {
	sx.closed.Store(true)
	var wg sync.WaitGroup
	for _, dx := range sx.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dx.Close()
		}()
	}
	wg.Wait()
}

// candidateSource implementation. A query's read window holds every
// shard's structural read-lock, acquired in shard order (a fixed order,
// so two concurrent queries cannot deadlock); shard-local candidate ids
// are translated to global ids in place as each shard's layers are
// probed. With one shard the translation is the identity.

func (sx *ShardedIndex[P]) beginRead() int {
	maxLen := 0
	for _, dx := range sx.shards {
		dx.mu.RLock()
		if n := len(dx.points); n > maxLen {
			maxLen = n
		}
	}
	// Shard s's largest global id is (len-1)*K + s < maxLen*K, so this
	// bound sizes the veneers' visited arrays for every translated id.
	return maxLen * len(sx.shards)
}

func (sx *ShardedIndex[P]) endRead() {
	for _, dx := range sx.shards {
		dx.mu.RUnlock()
	}
}

// srcPoint runs inside a beginRead window (every shard's lock held
// shared), so it reads the owning shard's points array directly.
func (sx *ShardedIndex[P]) srcPoint(id int) P {
	K := len(sx.shards)
	return sx.shards[id%K].points[id/K]
}

func (sx *ShardedIndex[P]) appendCandidates(rep int, key uint64, dst []int32) ([]int32, int) {
	K := int32(len(sx.shards))
	probes := 0
	for s, dx := range sx.shards {
		start := len(dst)
		var p int
		dst, p = dx.appendCandidates(rep, key, dst)
		probes += p
		for i := start; i < len(dst); i++ {
			dst[i] = dst[i]*K + int32(s)
		}
	}
	return dst, probes
}

// Snapshot returns an immutable view of every shard — per-shard snapshots
// unified under the global-id arithmetic — representing the whole index
// at one single instant: there is a moment T such that every shard's
// pinned state is exactly its state at T (an op sequence applied through
// the index is never seen half-applied across shards). The result
// implements the same candidateSource contract as the live index, so
// every veneer and the batch engine run over it unchanged, lock-free,
// while all shards keep absorbing writes. Snapshot panics after Close.
//
// The single instant is established by an epoch barrier with an
// optimistic fast path. Mark: read every shard's mutation epoch. Pin:
// take every shard's snapshot. Verify: every pinned epoch still equals
// its mark. All marks complete before any pin starts, so on success every
// shard was mutation-free over [its mark, its pin] — an interval
// containing [last mark, first pin] — and any T in that common window
// works. On a verify failure the pins are released and the attempt
// retried; after three failures Snapshot stops the world instead, holding
// the index's barrier exclusively (every mutator and GC swap holds it
// shared) while it pins, so a snapshot completes in bounded time under
// any write load.
func (sx *ShardedIndex[P]) Snapshot() *ShardedSnapshot[P] {
	if sx.closed.Load() {
		panic("index: Snapshot of closed ShardedIndex")
	}
	K := len(sx.shards)
	marks := make([]uint64, K)
	ss := &ShardedSnapshot[P]{snaps: make([]*shardSnap[P], K)}
	ss.bind(ss, sx.pairs, sx.negG)
	for attempt := 0; attempt < 3; attempt++ {
		for s, dx := range sx.shards {
			marks[s] = dx.Epoch()
		}
		for s, dx := range sx.shards {
			ss.snaps[s] = dx.pin()
		}
		ok := true
		for s, snap := range ss.snaps {
			if snap.epoch != marks[s] {
				ok = false
				break
			}
		}
		if ok {
			mSnapOptimistic.Inc(sx.stripe)
			return ss
		}
		mSnapRetries.Inc(sx.stripe)
		for s, snap := range ss.snaps {
			snap.release()
			ss.snaps[s] = nil
		}
	}
	// Fallback: quiesce every mutator (they hold barrier shared) and pin
	// under exclusion. Trivially a single instant.
	mSnapFallback.Inc(sx.stripe)
	obs.RecordEvent("snapshot.fallback", int64(K), 0)
	sx.barrier.Lock()
	for s, dx := range sx.shards {
		ss.snaps[s] = dx.pin()
	}
	sx.barrier.Unlock()
	return ss
}

// ShardedSnapshot is an immutable view of a ShardedIndex: one pin per
// shard (its segment list, points prefix and a private tombstone-bitmap
// clone), unified under the global-id arithmetic, together pinning the
// whole index at one single instant (see ShardedIndex.Snapshot for the
// epoch-barrier protocol that guarantees it). Queries, scans and the
// batch engine run over it with a free read window — no lock at all —
// while the live shards keep absorbing inserts, deletes and compactions,
// so a query stream over one snapshot observes one id set, start to
// finish. Safe for unrestricted concurrent use until Release.
type ShardedSnapshot[P any] struct {
	readPath[P]
	snaps    []*shardSnap[P]
	released atomic.Bool
}

// Shards returns the number of shards.
func (ss *ShardedSnapshot[P]) Shards() int { return len(ss.snaps) }

// Len returns the number of live points visible to the snapshot.
func (ss *ShardedSnapshot[P]) Len() int {
	n := 0
	for _, s := range ss.snaps {
		n += s.live
	}
	return n
}

// Release drops the snapshot's references to the pinned layers so
// segments rewritten by later compactions can be garbage-collected;
// queries afterwards panic. Releasing is optional — an unreferenced
// snapshot is reclaimed by the garbage collector anyway — but explicit
// release bounds the lifetime of large pinned segments in long-lived
// processes. Idempotent; must not run concurrently with queries on this
// snapshot.
func (ss *ShardedSnapshot[P]) Release() {
	if ss.released.Swap(true) {
		return
	}
	for _, s := range ss.snaps {
		s.release()
	}
}

// Epoch returns the sum of the per-shard snapshot epochs; it equals the
// live ShardedIndex.Epoch while no Insert or Delete has landed on any
// shard since the snapshot was taken.
func (ss *ShardedSnapshot[P]) Epoch() uint64 {
	var e uint64
	for _, s := range ss.snaps {
		e += s.epoch
	}
	return e
}

// Deleted reports whether the given global id was tombstoned at snapshot
// time; ids outside the assigned range (including negative ids) report
// false. Panics after Release.
func (ss *ShardedSnapshot[P]) Deleted(id int) bool {
	ss.check()
	if id < 0 {
		return false
	}
	K := len(ss.snaps)
	return ss.snaps[id%K].dead.Get(id / K)
}

// Point returns the point stored under the given global id at snapshot
// time; like ShardedIndex.Point it remains valid for deleted ids. Panics
// for ids never assigned and after Release.
func (ss *ShardedSnapshot[P]) Point(id int) P {
	ss.check()
	if id < 0 {
		panic("index: negative point id")
	}
	K := len(ss.snaps)
	return ss.snaps[id%K].points[id/K]
}

// AppendLiveIDs appends every live global id visible to the snapshot to
// dst in ascending order and returns the extended slice — the scan
// primitive: iterate the pinned id space once, with no locking, while the
// live index keeps mutating.
func (ss *ShardedSnapshot[P]) AppendLiveIDs(dst []int) []int {
	ss.check()
	K := len(ss.snaps)
	for local := 0; ; local++ {
		any := false
		for s, sn := range ss.snaps {
			if local < sn.idBound {
				any = true
				if !sn.dead.Get(local) {
					dst = append(dst, local*K+s)
				}
			}
		}
		if !any {
			return dst
		}
	}
}

// check panics when the snapshot has been released.
func (ss *ShardedSnapshot[P]) check() {
	if ss.released.Load() {
		panic("index: use of released Snapshot")
	}
}

// candidateSource implementation: like ShardedIndex but over the pinned
// per-shard snapshots, with a free read window.

func (ss *ShardedSnapshot[P]) beginRead() int {
	ss.check()
	maxBound := 0
	for _, s := range ss.snaps {
		if s.idBound > maxBound {
			maxBound = s.idBound
		}
	}
	return maxBound * len(ss.snaps)
}

func (ss *ShardedSnapshot[P]) endRead() {}

func (ss *ShardedSnapshot[P]) srcPoint(id int) P {
	K := len(ss.snaps)
	return ss.snaps[id%K].points[id/K]
}

func (ss *ShardedSnapshot[P]) appendCandidates(rep int, key uint64, dst []int32) ([]int32, int) {
	K := int32(len(ss.snaps))
	probes := 0
	for s, sn := range ss.snaps {
		start := len(dst)
		var p int
		dst, p = appendSegmentCandidates(sn.segments, &sn.dead, rep, key, dst)
		probes += p
		for i := start; i < len(dst); i++ {
			dst[i] = dst[i]*K + int32(s)
		}
	}
	return dst, probes
}
