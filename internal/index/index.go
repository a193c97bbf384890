// Package index implements the paper's Section 6 applications as hash-table
// data structures built on DSH families.
//
// Serving is organized around one read path (source.go). Each backend
// implements only the storage primitives of candidateSource — a
// per-repetition key probe plus tombstone-aware candidate iteration under
// stable point ids — and embeds readPath, which holds the repetition
// draws and the Querier pool and declares the shared query surface
// (CollectDistinct, Candidates, QueryBatch, NewQuerier) once. Three
// backends implement it:
//
//   - Index: the frozen flat-table backend (table.go) — each repetition is
//     an open-addressed key array plus a CSR id array built once at
//     construction, so a probe is one hash, a short linear scan, and one
//     contiguous []int32 slice.
//   - ShardedIndex (shard.go): the mutable, LSM-style backend for churning
//     workloads — K independent shards sharing one set of repetition
//     draws, partitioned by global id, so multi-writer ingest never
//     contends on a single lock. Each shard (dynamic.go, memtable.go,
//     segment.go, compact.go) absorbs inserts in a map-layout memtable,
//     holds frozen points in immutable flat-table segments, records
//     deletes in a tombstone bitmap, and compacts by merging retained key
//     columns without re-evaluating any hash function. With K=1 its ids
//     and candidate order are a static Index's over the live points.
//   - ShardedSnapshot (shard.go, snapshot.go): an immutable point-in-time
//     view of every shard for lock-free, snapshot-isolated scans and
//     queries while the live index mutates.
//
// The query structures are veneers written once over that core and served
// by any backend (veneer.go):
//
//   - AnnulusIndex (Theorems 6.1, 6.2, 6.4): retrieve a point whose
//     distance/similarity to the query lies in a target interval, with the
//     8L early-termination rule from the proof of Theorem 6.1.
//   - RangeReporter (Theorem 6.5): output-sensitive spherical range
//     reporting with a step-function CPF.
//   - CollectDistinct / QueryBatch: deduplicated candidate collection,
//     sequential and concurrent (batch.go).
//   - Linear-scan baselines and a [41]-style concatenation baseline are in
//     baseline.go.
//
// Query-time scratch (dedup sets, negated-query buffers, candidate and
// output buffers) lives in reusable Querier objects so the steady-state
// query path performs no heap allocations on any backend.
package index

import (
	"math"
	"time"

	"dsh/internal/core"
	"dsh/internal/xrand"
)

// negQueryHasher is implemented by query-side hashers that evaluate an
// inner hasher on the negated query point (the paper's central asymmetry
// device; see sphere.NegateQuery and the anti families). HashNeg hashes an
// already-negated point, letting a querier negate a query once per query
// instead of once per repetition.
type negQueryHasher interface {
	HashNeg(neg []float64) uint64
}

// Index is a multi-repetition asymmetric hash index: L independent draws
// (h_i, g_i) from a DSH family; point x is stored in table i under key
// h_i(x) and a query y probes table i with key g_i(y). An Index is
// immutable after construction and therefore safe for unrestricted
// concurrent querying; it is the frozen backend of the candidateSource
// core.
type Index[P any] struct {
	readPath[P]
	family core.Family[P]
	tables []flatTable
	points []P
}

// newIndexShell allocates an Index with empty tables and unsampled
// repetition draws, bound to its read path.
func newIndexShell[P any](family core.Family[P], L int, points []P) *Index[P] {
	if family == nil {
		panic("index: family must be non-nil")
	}
	if L <= 0 {
		panic("index: repetitions must be positive")
	}
	ix := &Index[P]{
		family: family,
		tables: make([]flatTable, L),
		points: points,
	}
	ix.bind(ix, make([]core.Pair[P], L), nil)
	return ix
}

// negHashers records, per repetition, whether the query-side hasher
// supports the pre-negated fast path. Called after all pairs are sampled;
// the static and dynamic backends share it.
func negHashers[P any](pairs []core.Pair[P]) []negQueryHasher {
	out := make([]negQueryHasher, len(pairs))
	for i, pair := range pairs {
		if nh, ok := pair.G.(negQueryHasher); ok {
			out[i] = nh
		}
	}
	return out
}

// freezeNegG caches the pre-negated fast-path hashers for ix.pairs.
func (ix *Index[P]) freezeNegG() {
	ix.negG = negHashers(ix.pairs)
}

// New builds an index over points with L repetitions of the family. The
// build is already repetition-blocked (all points are hashed against one
// draw before the next is sampled), so when the family's data hasher
// implements core.BatchHasher the whole column is hashed in one call.
func New[P any](rng *xrand.Rand, family core.Family[P], L int, points []P) *Index[P] {
	ix := newIndexShell(family, L, points)
	keys := make([]uint64, len(points))
	for i := 0; i < L; i++ {
		ix.pairs[i] = family.Sample(rng)
		hashColumn(ix.pairs[i].H, points, keys)
		ix.tables[i] = buildFlatTable(keys)
	}
	ix.freezeNegG()
	return ix
}

// Len returns the number of indexed points.
func (ix *Index[P]) Len() int { return len(ix.points) }

// Point returns the stored point with the given id.
func (ix *Index[P]) Point(id int) P { return ix.points[id] }

// candidateSource implementation. The Index is immutable, so the read
// window is free and candidate iteration is a single flat-table lookup per
// repetition.

func (ix *Index[P]) beginRead() int    { return len(ix.points) }
func (ix *Index[P]) endRead()          {}
func (ix *Index[P]) srcPoint(id int) P { return ix.points[id] }

func (ix *Index[P]) appendCandidates(rep int, key uint64, dst []int32) ([]int32, int) {
	return append(dst, ix.tables[rep].lookup(key)...), 1
}

// QueryStats reports the work performed by a query.
type QueryStats struct {
	// Probes is the number of hash-table bucket lookups performed: one per
	// repetition per storage layer probed. A static Index probes one table
	// per repetition; a ShardedIndex probes every shard's segments and
	// live memtable (an empty memtable is skipped), so Probes surfaces the
	// layering cost that compaction removes.
	Probes int
	// Candidates is the total number of live candidate ids scanned,
	// counting duplicates across repetitions. Tombstoned (deleted) ids are
	// filtered during iteration and never counted.
	Candidates int
	// Distinct is the number of distinct candidates seen.
	Distinct int
	// Verified is the number of candidate points whose distance was
	// actually evaluated.
	Verified int
	// Latency is the wall-clock time of the query. It is populated by the
	// batch entry points in batch.go; single-query paths leave it zero.
	Latency time.Duration
}

// RepetitionsForCPF returns the standard repetition count L = ceil(1/f)
// that makes a target with collision probability f collide in some
// repetition with constant probability (1 - 1/e).
func RepetitionsForCPF(f float64) int {
	if f <= 0 {
		panic("index: collision probability must be positive")
	}
	if f >= 1 {
		return 1
	}
	L := math.Ceil(1 / f)
	if L > 1<<24 {
		panic("index: repetition count unreasonably large")
	}
	return int(L)
}
