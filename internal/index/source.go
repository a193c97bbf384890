package index

import (
	"sync"
	"time"

	"dsh/internal/core"
	"dsh/internal/obs"
)

// candidateSource is the storage half of the read path: the paper's
// serving contract reduced to its storage operations — iterate the ids
// colliding with one repetition's key under stable point ids, and read a
// point back — so that the Section 6 structures (distinct-candidate
// collection, annulus search, range reporting, concurrent batching) are
// written once, in readPath and Querier, and instantiated over any
// backend. (Ids are stable within any read window and, for every policy
// but CompactLeveled, across the backend's lifetime; a leveled GC merge
// renumbers ids between windows and advances the epoch.) The backends:
//
//   - *Index: the frozen flat-table layout (one immutable table per
//     repetition, ids 0..Len-1).
//   - *ShardedIndex: K segmented LSM shards (frozen segments + the live
//     memtable, tombstones applied during iteration) probed in shard
//     order, shard-local ids translated to global ids during iteration.
//   - *ShardedSnapshot: a pinned, immutable view of every shard with a
//     free read window.
//
// Thread-safety contract: appendCandidates and srcPoint may only be
// called between beginRead and endRead, which bracket exactly one query
// and pin a consistent snapshot of the backend (the static Index and a
// ShardedSnapshot are immutable, so their beginRead is free; the
// ShardedIndex holds every shard's structural read-lock for the
// duration). Implementations must allow any
// number of concurrent beginRead..endRead windows; mutators may block for
// their duration but must never corrupt an open window.
type candidateSource[P any] interface {
	// beginRead opens a read-consistent snapshot for one query and returns
	// the exclusive upper bound of the id space (ids seen during the query
	// are < the returned value). Every beginRead must be paired with
	// endRead. A backend that can no longer be read (a released snapshot)
	// panics here.
	beginRead() int
	// endRead releases the snapshot taken by beginRead.
	endRead()
	// appendCandidates appends the live ids colliding with key in
	// repetition rep to dst (tombstoned ids already filtered, duplicates
	// across repetitions included — deduplication is the caller's job) and
	// returns the extended slice plus the number of per-layer bucket
	// lookups performed. Candidate order is the backend's canonical
	// insertion order: the sharded backends iterate shard-major within a
	// repetition (ascending id within each shard), so per-probe candidate
	// *sets* coincide with a static Index over the same live points, and
	// with one shard so does the order; with several shards the order, and
	// anything derived from order under truncation or early termination,
	// may differ.
	appendCandidates(rep int, key uint64, dst []int32) ([]int32, int)
	// srcPoint returns the point stored under id, valid only inside a
	// beginRead..endRead window.
	srcPoint(id int) P
}

// Source is the exported handle to a serving backend — *Index,
// *ShardedIndex or *ShardedSnapshot — and the query surface they share. Callers cannot implement Source themselves
// (it has an unexported method); they obtain one from this package and
// query it directly, draw Queriers from it, or hand it to NewAnnulusOver
// or NewRangeReporterOver to bind a predicate veneer to any backend,
// including point-in-time snapshots.
type Source[P any] interface {
	L() int
	CollectDistinct(q P, max int) []int
	Candidates(q P, visit func(id int) bool)
	QueryBatch(queries []P, opts BatchOptions) ([][]int, []QueryStats, BatchStats)
	NewQuerier() *Querier[P]
	reads() *readPath[P]
}

// readPath is the query half of every backend, written once and embedded
// in all three: the L repetition draws (h_i, g_i), sampled once at
// construction and immutable afterwards; the per-repetition pre-negated
// query hashers (nil entries where the fast path is unavailable), aligned
// with pairs; and the pool of Queriers behind the single-query and batch
// entry points, so steady-state serving does not allocate. Its methods
// reach the backend's storage only through src.
type readPath[P any] struct {
	src      candidateSource[P]
	pairs    []core.Pair[P]
	negG     []negQueryHasher
	queriers sync.Pool
}

// bind ties the read path to its backend's storage primitives and
// repetition draws and wires the querier pool. Every constructor calls it
// once, before the backend is published.
func (rp *readPath[P]) bind(src candidateSource[P], pairs []core.Pair[P], negG []negQueryHasher) {
	rp.src, rp.pairs, rp.negG = src, pairs, negG
	rp.queriers.New = func() any { return rp.NewQuerier() }
}

func (rp *readPath[P]) reads() *readPath[P] { return rp }

func (rp *readPath[P]) acquireSQ() *Querier[P]   { return rp.queriers.Get().(*Querier[P]) }
func (rp *readPath[P]) releaseSQ(qr *Querier[P]) { rp.queriers.Put(qr) }

// L returns the number of repetitions. The repetition draws are immutable,
// so L is safe for concurrent use with every other method.
func (rp *readPath[P]) L() int { return len(rp.pairs) }

// NewQuerier returns a fresh Querier bound to this backend, for callers
// that drive many sequential queries and manage their own per-goroutine
// scratch.
func (rp *readPath[P]) NewQuerier() *Querier[P] {
	return &Querier[P]{rp: rp, stripe: obs.NextStripe()}
}

// CollectDistinct gathers up to max distinct live candidate ids for q
// (max <= 0 means no limit), deduplicated across repetitions and layers in
// first-occurrence order. Over a one-shard index or its snapshots that
// order equals a static Index's over the same live points; with several
// shards it is shard-major within each repetition, so when max truncates
// the collection the first max ids kept may differ from a single-index
// build even though their count does not. The returned slice
// is freshly allocated and owned by the caller; a Querier's
// CollectDistinct is the zero-allocation variant. Safe for concurrent use:
// the query runs inside one read window, so it sees one consistent layer
// list and tombstone state even during freezes and compactions.
func (rp *readPath[P]) CollectDistinct(q P, max int) []int {
	qr := rp.acquireSQ()
	res, _ := qr.CollectDistinct(q, max)
	out := ownedIDs(res)
	rp.releaseSQ(qr)
	return out
}

// Candidates streams the live ids colliding with q, repetition by
// repetition (duplicates across repetitions included), invoking visit for
// each; if visit returns false the scan stops early. visit runs inside the
// query's read window: over a live ShardedIndex it must not call back
// into that index's mutating or locking methods, or the scan deadlocks (a
// snapshot's read window takes no lock).
func (rp *readPath[P]) Candidates(q P, visit func(id int) bool) {
	qr := rp.acquireSQ()
	qr.Candidates(q, visit)
	rp.releaseSQ(qr)
}

// ownedIDs copies a querier-owned result out so the caller owns it; an
// empty result stays nil.
func ownedIDs(res []int) []int {
	if len(res) == 0 {
		return nil
	}
	out := make([]int, len(res))
	copy(out, res)
	return out
}

// Querier is the reusable query scratch of one backend: an epoch-stamped
// visited array over the id space (deduplication without clearing), a
// candidate buffer refilled per repetition probe, a negated query buffer
// for NegateQuery-backed families, and a reusable output buffer. Obtain
// one with NewQuerier on any backend (or on a veneer's Source). The
// backends pool Queriers behind their single-query and batch entry
// points; the batch engine hands each worker its own.
//
// A Querier is not safe for concurrent use; use one per goroutine.
// Steady-state queries through a warmed Querier perform no heap
// allocations (a ShardedIndex may grow the visited array when the id
// space grew since the querier's last use).
type Querier[P any] struct {
	rp *readPath[P]

	visited []uint32
	epoch   uint32
	out     []int
	buf     []int32
	neg     []float64
	negOK   bool
	// preKeys, when non-nil, is a rep-major pre-hashed key block installed
	// by the batch engine: gKey(i, q) reads preKeys[i*preStride+preOff]
	// instead of evaluating g_i. blockHash computes the block with the
	// exact per-repetition path gKey would take, so consuming it is
	// bit-identical to hashing inline. The batch worker clears preKeys
	// after each query.
	preKeys   []uint64
	preStride int
	preOff    int
	// stripe is this querier's metrics stripe, drawn once at construction;
	// queriers are per-goroutine, so concurrent batch workers record onto
	// distinct counter cache lines.
	stripe uint32
}

// begin opens a new query over an id space of size n: grow the visited
// array if needed and advance the epoch (clearing the array only on uint32
// wraparound).
func (qr *Querier[P]) begin(n int) {
	qr.negOK = false
	if len(qr.visited) < n {
		grown := make([]uint32, n)
		copy(grown, qr.visited)
		qr.visited = grown
	}
	qr.epoch++
	if qr.epoch == 0 {
		for i := range qr.visited {
			qr.visited[i] = 0
		}
		qr.epoch = 1
	}
}

// negateQuery fills buf with -q when q is a []float64, reporting success.
// The returned slice reuses buf's capacity so steady-state negation does
// not allocate.
func negateQuery[P any](buf []float64, q P) ([]float64, bool) {
	fq, ok := any(q).([]float64)
	if !ok {
		return buf, false
	}
	if cap(buf) < len(fq) {
		buf = make([]float64, len(fq))
	}
	buf = buf[:len(fq)]
	for i, v := range fq {
		buf[i] = -v
	}
	return buf, true
}

// prepNeg fills qr.neg with -q if q is a []float64 and reports success.
// The negation is computed at most once per query.
func (qr *Querier[P]) prepNeg(q P) bool {
	if qr.negOK {
		return true
	}
	qr.neg, qr.negOK = negateQuery(qr.neg, q)
	return qr.negOK
}

// gKey returns g_i(q), negating q once per query (into the reused scratch
// buffer) when repetition i's query hasher supports the pre-negated path.
// When the batch engine installed a pre-hashed key block the key is read
// from it instead of re-evaluated.
func (qr *Querier[P]) gKey(i int, q P) uint64 {
	if qr.preKeys != nil {
		return qr.preKeys[i*qr.preStride+qr.preOff]
	}
	if nh := qr.rp.negG[i]; nh != nil {
		if qr.prepNeg(q) {
			return nh.HashNeg(qr.neg)
		}
	}
	return qr.rp.pairs[i].G.Hash(q)
}

// Candidates streams the live ids colliding with q, repetition by
// repetition (duplicates across repetitions included), invoking visit for
// each. If visit returns false the scan stops early. See the backend's
// Candidates for the read-window contract visit runs under.
func (qr *Querier[P]) Candidates(q P, visit func(id int) bool) {
	start := time.Now()
	src := qr.rp.src
	src.beginRead()
	defer src.endRead()
	qr.negOK = false
	var stats QueryStats
	hashEvals := 0
scan:
	for i := range qr.rp.pairs {
		key := qr.gKey(i, q)
		hashEvals++
		buf, probes := src.appendCandidates(i, key, qr.buf[:0])
		qr.buf = buf
		stats.Probes += probes
		stats.Candidates += len(buf)
		for _, id := range buf {
			if !visit(int(id)) {
				break scan
			}
		}
	}
	qr.recordQuery(start, hashEvals, stats)
}

// CollectDistinct gathers up to max distinct live candidate ids for q
// (max <= 0 means no limit), returning the same ids in the same order as
// the backend's CollectDistinct. The returned slice is owned by the
// querier and valid only until its next use.
//
// Stats contract: every repetition probe that runs is counted in full —
// Probes counts its bucket lookups across all layers and Candidates all
// live ids it scanned — even when the max cutoff stops the distinct
// collection partway through the probe's buffer, so per-query stats always
// aggregate the work of whole repetitions across every segment and the
// memtable.
func (qr *Querier[P]) CollectDistinct(q P, max int) ([]int, QueryStats) {
	start := time.Now()
	src := qr.rp.src
	n := src.beginRead()
	defer src.endRead()
	qr.begin(n)
	var stats QueryStats
	hashEvals := 0
	out := qr.out[:0]
	visited := qr.visited
	epoch := qr.epoch
scan:
	for i := range qr.rp.pairs {
		key := qr.gKey(i, q)
		hashEvals++
		buf, probes := src.appendCandidates(i, key, qr.buf[:0])
		qr.buf = buf
		stats.Probes += probes
		stats.Candidates += len(buf)
		for _, id32 := range buf {
			id := int(id32)
			if visited[id] != epoch {
				visited[id] = epoch
				out = append(out, id)
				stats.Distinct++
				if max > 0 && len(out) >= max {
					break scan
				}
			}
		}
	}
	qr.out = out
	qr.recordQuery(start, hashEvals, stats)
	return out, stats
}

// annulusQuery runs the Theorem 6.1 query algorithm against the source:
// scan candidates in repetition order, verify each with within, return the
// first hit, and give up after 8L candidates (the Markov-bound early
// termination from the proof of Theorem 6.1).
func (qr *Querier[P]) annulusQuery(q P, within func(q, x P) bool) (int, QueryStats) {
	start := time.Now()
	src := qr.rp.src
	limit := 8 * len(qr.rp.pairs)
	src.beginRead()
	defer src.endRead()
	qr.negOK = false
	var stats QueryStats
	res := -1
	hashEvals := 0
scan:
	for i := range qr.rp.pairs {
		key := qr.gKey(i, q)
		hashEvals++
		buf, probes := src.appendCandidates(i, key, qr.buf[:0])
		qr.buf = buf
		stats.Probes += probes
		for _, id32 := range buf {
			stats.Candidates++
			stats.Verified++
			id := int(id32)
			if within(q, src.srcPoint(id)) {
				res = id
				break scan
			}
			if stats.Candidates >= limit {
				break scan
			}
		}
	}
	qr.recordQuery(start, hashEvals, stats)
	return res, stats
}

// appendRange runs the Theorem 6.5 reporting algorithm against the source:
// verify every distinct candidate once with inRange and append the ids
// that qualify to dst, returning the extended slice.
func (qr *Querier[P]) appendRange(dst []int, q P, inRange func(q, x P) bool) ([]int, QueryStats) {
	start := time.Now()
	src := qr.rp.src
	n := src.beginRead()
	defer src.endRead()
	qr.begin(n)
	var stats QueryStats
	hashEvals := 0
	visited := qr.visited
	epoch := qr.epoch
	for i := range qr.rp.pairs {
		key := qr.gKey(i, q)
		hashEvals++
		buf, probes := src.appendCandidates(i, key, qr.buf[:0])
		qr.buf = buf
		stats.Probes += probes
		stats.Candidates += len(buf)
		for _, id32 := range buf {
			id := int(id32)
			if visited[id] != epoch {
				visited[id] = epoch
				stats.Distinct++
				stats.Verified++
				if inRange(q, src.srcPoint(id)) {
					dst = append(dst, id)
				}
			}
		}
	}
	qr.recordQuery(start, hashEvals, stats)
	return dst, stats
}
