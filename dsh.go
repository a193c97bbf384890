// Package dsh is a from-scratch Go implementation of Distance-Sensitive
// Hashing (Aumüller, Christiani, Pagh, Silvestri; PODS 2018): distributions
// over *pairs* of hash functions (h, g) whose collision probability
// Pr[h(x) = g(y)] is a prescribed function f -- the collision probability
// function (CPF) -- of dist(x, y).
//
// Classical locality-sensitive hashing is the symmetric special case h = g
// with a decreasing CPF. The asymmetry unlocks increasing ("anti-LSH"),
// unimodal, polynomial, and step-shaped CPFs, with applications to annulus
// search, hyperplane queries, output-sensitive range reporting, and
// privacy-preserving distance estimation -- all implemented here.
//
// # Layout
//
// This root package re-exports the library's public API. The pieces live in
// focused subpackages:
//
//   - Framework (Definition 1.1, Lemma 1.4): Family, Pair, CPF, Concat,
//     Power, Mixture, and the Monte-Carlo CPF estimation harness.
//   - Hamming space (Sections 4.1, 5): BitSampling, AntiBitSampling,
//     PolynomialFamily (Theorem 5.2), MonotonePolynomialFamily.
//   - Unit sphere (Sections 2, 5, 6.2): SimHash, CrossPolytope and
//     AntiCrossPolytope, FilterPlus/FilterMinus (Theorem 1.2), NewAnnulus
//     (Section 6.2), NewStep, NewValiant (Theorem 5.1).
//   - Euclidean space (Section 4.2): NewPStable (Theorem 4.1).
//   - Applications (Section 6): index structures for annulus search and
//     range reporting, and the PSI-based private distance estimator.
//
// # Quickstart
//
//	rng := dsh.NewRand(1)
//	fam := dsh.AntiBitSampling(256)          // CPF f(t) = t
//	pair := fam.Sample(rng)                  // one (h, g) draw
//	x := dsh.RandomBits(rng, 256)
//	y := dsh.BitsAtDistance(rng, x, 64)      // relative distance 0.25
//	_ = pair.Collides(x, y)                  // true with probability 0.25
//
// See the examples/ directory for runnable programs and cmd/dshbench for
// the experiment harness that reproduces every figure of the paper.
package dsh

import (
	"time"

	"dsh/internal/bitvec"
	"dsh/internal/core"
	"dsh/internal/cpfit"
	"dsh/internal/durable"
	"dsh/internal/euclid"
	"dsh/internal/hamming"
	"dsh/internal/index"
	"dsh/internal/kde"
	"dsh/internal/obs"
	"dsh/internal/poly"
	"dsh/internal/privacy"
	"dsh/internal/psi"
	"dsh/internal/rff"
	"dsh/internal/serve"
	"dsh/internal/sphere"
	"dsh/internal/xrand"
)

// Rand is the deterministic pseudo-random generator used by every sampler
// in the library.
type Rand = xrand.Rand

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// Core framework types (Definition 1.1).
type (
	// Family is a distance-sensitive hash family over point type P.
	Family[P any] = core.Family[P]
	// Pair is a single (h, g) draw from a family.
	Pair[P any] = core.Pair[P]
	// Hasher maps points to 64-bit hash values.
	Hasher[P any] = core.Hasher[P]
	// BatchHasher is a Hasher that evaluates whole blocks of points per
	// call, emitting bit-identical keys to point-at-a-time Hash; the index
	// batch engine and builders use it to keep one repetition's draws
	// cache-resident while a block streams through. FastCrossPolytope's
	// and Power(SimHash(d), k)'s hashers implement it.
	BatchHasher[P any] = core.BatchHasher[P]
	// CPF is a collision probability function with domain metadata.
	CPF = core.CPF
	// Domain identifies a CPF's argument convention.
	Domain = core.Domain
	// Estimate is a Monte-Carlo collision probability estimate.
	Estimate = core.Estimate
)

// CPF domains.
const (
	DomainDistance        = core.DomainDistance
	DomainRelativeHamming = core.DomainRelativeHamming
	DomainInnerProduct    = core.DomainInnerProduct
)

// Lemma 1.4 combinators.
func Concat[P any](parts ...Family[P]) Family[P] { return core.Concat(parts...) }

// Power returns the k-fold concatenation of fam with itself (CPF f^k).
// Power(SimHash(d), k) with k >= 2 is a fused concatenation whose hashers
// pack the k hyperplanes row-major and implement BatchHasher; its draws,
// name, keys and CPF are exactly Concat's.
func Power[P any](fam Family[P], k int) Family[P] { return core.Power(fam, k) }

// Mixture returns the convex combination of families (CPF sum w_i f_i).
func Mixture[P any](parts []Family[P], weights []float64) Family[P] {
	return core.Mixture(parts, weights)
}

// EstimateCollision estimates a family's CPF at x by Monte-Carlo sampling.
func EstimateCollision[P any](rng *Rand, fam Family[P], gen core.PairGenerator[P], x float64, trials int, z float64) Estimate {
	return core.EstimateCollision(rng, fam, gen, x, trials, z)
}

// Hamming space. BitVector is a packed binary vector.
type BitVector = bitvec.Vector

// NewBits returns an all-zero bit vector of dimension d.
func NewBits(d int) BitVector { return bitvec.New(d) }

// RandomBits returns a uniform random bit vector.
func RandomBits(rng *Rand, d int) BitVector { return bitvec.Random(rng, d) }

// BitsAtDistance returns a copy of x with exactly r random bits flipped.
func BitsAtDistance(rng *Rand, x BitVector, r int) BitVector {
	return bitvec.AtDistance(rng, x, r)
}

// HammingDistance returns the Hamming distance between bit vectors.
func HammingDistance(x, y BitVector) int { return bitvec.Distance(x, y) }

// BitSampling returns the classical bit-sampling LSH (CPF 1 - t).
func BitSampling(d int) Family[BitVector] { return hamming.BitSampling(d) }

// AntiBitSampling returns the Section 4.1 anti-LSH (CPF t).
func AntiBitSampling(d int) Family[BitVector] { return hamming.AntiBitSampling(d) }

// Polynomial is a real-coefficient polynomial (constant term first).
type Polynomial = poly.Poly

// NewPolynomial builds a polynomial from coefficients, low degree first.
func NewPolynomial(coeffs ...float64) Polynomial { return poly.New(coeffs...) }

// PolynomialScheme is the Theorem 5.2 result: a family with CPF P(t)/Delta.
type PolynomialScheme = hamming.PolynomialScheme

// PolynomialFamily builds the Theorem 5.2 Hamming family for P.
func PolynomialFamily(d int, p Polynomial) (*PolynomialScheme, error) {
	return hamming.PolynomialFamily(d, p)
}

// MonotonePolynomialFamily builds the Lemma 1.4 mixture family with CPF
// exactly P(t), for P with non-negative coefficients summing to 1.
func MonotonePolynomialFamily(d int, p Polynomial) (Family[BitVector], error) {
	return hamming.MonotonePolynomialFamily(d, p)
}

// Unit sphere.

// SimHash returns Charikar's hyperplane LSH (CPF 1 - arccos(alpha)/pi).
func SimHash(d int) Family[[]float64] { return sphere.SimHash(d) }

// AntiSimHash returns the query-negated SimHash (CPF arccos(alpha)/pi).
func AntiSimHash(d int) Family[[]float64] { return sphere.AntiSimHash(d) }

// CrossPolytope returns the CP+ family of Section 2.1.
func CrossPolytope(d int) Family[[]float64] { return sphere.CrossPolytope(d) }

// AntiCrossPolytope returns the query-negated CP- family (Corollary 2.2).
func AntiCrossPolytope(d int) Family[[]float64] { return sphere.AntiCrossPolytope(d) }

// FastCrossPolytope returns the FFT-accelerated CP+ family: the dense
// Gaussian rotation replaced by rounds of (random sign flips x
// Walsh-Hadamard transform) over the input zero-padded to a power of two,
// so one hash costs O(d log d) instead of O(d^2) with statistically
// matching collision probabilities. Its hashers implement BatchHasher.
func FastCrossPolytope(d int) Family[[]float64] { return sphere.FastCrossPolytope(d) }

// FastAntiCrossPolytope returns the query-negated fast CP- family, the
// structured-rotation analogue of AntiCrossPolytope.
func FastAntiCrossPolytope(d int) Family[[]float64] { return sphere.FastAntiCrossPolytope(d) }

// Filter is the Section 2.2 cap-sequence family (Theorem 1.2).
type Filter = sphere.Filter

// FilterPlus returns D+ with threshold t (increasing CPF).
func FilterPlus(d int, t float64) *Filter { return sphere.NewFilterPlus(d, t) }

// FilterMinus returns the query-negated D- (decreasing CPF, Theorem 1.2).
func FilterMinus(d int, t float64) *Filter { return sphere.NewFilterMinus(d, t) }

// AnnulusFamily is the unimodal family of Section 6.2.
type AnnulusFamily = sphere.AnnulusFamily

// Annulus returns the Section 6.2 family peaking at inner product alphaMax.
func Annulus(d int, alphaMax, t float64) *AnnulusFamily {
	return sphere.NewAnnulus(d, alphaMax, t)
}

// AnnulusBounds returns the Theorem 6.2 interval [alpha-, alpha+].
func AnnulusBounds(alphaMax, s float64) (alphaMinus, alphaPlus float64) {
	return sphere.AnnulusBounds(alphaMax, s)
}

// Step returns a step-function CPF family flat on [alphaLo, alphaHi]
// (Figure 2 / Theorem 6.5 / Section 6.4).
func Step(d int, alphaLo, alphaHi float64, levels int, t float64) Family[[]float64] {
	return sphere.NewStep(d, alphaLo, alphaHi, levels, t)
}

// Valiant returns the Theorem 5.1 family with CPF 1 - arccos(P(alpha))/pi,
// for P with absolute coefficient sum 1.
func Valiant(d int, p Polynomial) (Family[[]float64], error) {
	return sphere.NewValiant(d, p)
}

// SketchValiant returns the TensorSketch-approximated Theorem 5.1 family.
func SketchValiant(d int, p Polynomial, width int) (Family[[]float64], error) {
	return sphere.NewSketchValiant(d, p, width)
}

// Euclidean space.

// PStable is the R_{k,w} family of Section 4.2.
type PStable = euclid.PStable

// NewPStable returns R_{k,w} for dimension d (Figure 1, Theorem 4.1).
func NewPStable(d, k int, w float64) *PStable { return euclid.NewPStable(d, k, w) }

// Applications (Section 6).

// Index is a generic multi-repetition asymmetric LSH index.
type Index[P any] = index.Index[P]

// NewIndex builds an index over points with L repetitions of fam.
func NewIndex[P any](rng *Rand, fam Family[P], L int, points []P) *Index[P] {
	return index.New(rng, fam, L, points)
}

// AnnulusIndex is the Theorem 6.1 annulus-search structure: a query
// veneer served by any backend — a fresh static index (NewAnnulusIndex)
// or an existing backend, live or snapshot (NewAnnulusIndexOver).
type AnnulusIndex[P any] = index.AnnulusIndex[P]

// NewAnnulusIndex builds the Theorem 6.1 structure over a fresh static
// index.
func NewAnnulusIndex[P any](rng *Rand, fam Family[P], L int, points []P, within func(q, x P) bool) *AnnulusIndex[P] {
	return index.NewAnnulus(rng, fam, L, points, within)
}

// RangeReporter is the Theorem 6.5 output-sensitive reporting structure:
// a query veneer served by any backend — a fresh static index
// (NewRangeReporter) or an existing backend, live or snapshot
// (NewRangeReporterOver).
type RangeReporter[P any] = index.RangeReporter[P]

// NewRangeReporter builds the Theorem 6.5 structure over a fresh static
// index.
func NewRangeReporter[P any](rng *Rand, fam Family[P], L int, points []P, inRange func(q, x P) bool) *RangeReporter[P] {
	return index.NewRangeReporter(rng, fam, L, points, inRange)
}

// RepetitionsForCPF returns L = ceil(1/f).
func RepetitionsForCPF(f float64) int { return index.RepetitionsForCPF(f) }

// DynamicOptions configures every shard of a ShardedIndex (memtable
// freeze threshold, background compaction and its merge policy).
type DynamicOptions = index.DynamicOptions

// CompactionPolicy selects whether a ShardedIndex's merges keep ids
// stable (CompactAll) or collect tombstones and renumber (CompactLeveled);
// explicit Compact calls always merge everything.
type CompactionPolicy = index.CompactionPolicy

// Compaction policies.
const (
	// CompactAll folds all frozen state into a single segment on every
	// automatic compaction; ids never change.
	CompactAll = index.CompactAll
	// CompactLeveled keeps one big bottom segment plus a small upper tier
	// and garbage-collects tombstones in its bottom-level merges: dead
	// rows are dropped permanently, survivors are renumbered through a
	// dense shrinking id space, and the tombstone bitmap is compacted.
	// Ids are stable only between GC merges — use InsertKeyed for durable
	// identity, and GCStats for the reclamation counters.
	CompactLeveled = index.CompactLeveled
)

// GCStats reports tombstone occupancy and garbage-collection progress for
// a ShardedIndex, summed across its shards; obtain it with
// ShardedIndex.GCStats. Only CompactLeveled reclaims bitmap storage and
// collects rows permanently.
type GCStats = index.GCStats

// ShardedIndex is the mutable, LSM-style variant of Index and the
// multi-writer serving core: K independent shards — each with its own
// map-layout memtable absorbing Inserts, immutable flat-table segments
// holding frozen points, tombstone bitmap recording Deletes, compaction
// policy and locks — sharing one set of L repetition draws, so inserts and
// deletes on different shards never contend while queries keep the exact
// collision-probability semantics (and candidate/distinct counts) of a
// static Index over the same live points. Segments retain their hash-key
// columns, so every merge (see CompactionPolicy) moves memory instead of
// re-evaluating hash functions; Compact folds each shard into one flat
// segment, after which steady-state queries through a Querier allocate
// nothing. Points are partitioned by global id: id g lives on shard g mod
// K, and with Shards: 1 the ids and candidate order are a static Index's.
// Under RouteHash routing, InsertKeyed sends every version of an external
// key to one hash-chosen shard, making re-insertion an atomic upsert, and
// Snapshot pins all shards at a single instant via the epoch barrier.
type ShardedIndex[P any] = index.ShardedIndex[P]

// ShardOptions configures a ShardedIndex: the shard count, the insert
// Routing discipline, and the DynamicOptions applied to every shard.
type ShardOptions = index.ShardOptions

// Routing selects how a ShardedIndex assigns inserts to shards; see
// RouteRoundRobin and RouteHash.
type Routing = index.Routing

// Insert-routing disciplines.
const (
	// RouteRoundRobin rotates plain Inserts across shards (dense ids,
	// balanced shards); InsertKeyed panics under it.
	RouteRoundRobin = index.RouteRoundRobin
	// RouteHash routes InsertKeyed by a hash of the external key so every
	// version of a key lives on one shard; plain Insert panics under it.
	RouteHash = index.RouteHash
)

// NewShardedDynamicIndex builds a sharded dynamic index over the initial
// points (global ids 0..len-1, point i on shard i mod Shards) with L
// repetitions of fam shared by every shard. It consumes rng exactly like
// NewIndex, so sharded and static indexes seeded identically share their
// repetition draws. It panics with a clear message when fam is nil,
// L <= 0, or opts.Shards <= 0.
func NewShardedDynamicIndex[P any](rng *Rand, fam Family[P], L int, points []P, opts ShardOptions) *ShardedIndex[P] {
	return index.NewSharded(rng, fam, L, points, opts)
}

// Durability: a ShardedIndex can be backed by an on-disk store — per
// shard, a checksummed write-ahead log journaling every mutation
// (including the hash keys, so recovery never re-evaluates a hash
// function), immutable segment files written on checkpoint, and an
// atomically-renamed manifest tying them together, plus a top-level
// manifest recording the shard count. OpenShardedIndex rebuilds the exact
// serving state after a clean shutdown, a crash, or a torn WAL tail.

// PointCodec serializes index points for the WAL and segment files.
type PointCodec[P any] = durable.PointCodec[P]

// Point codecs for the built-in point types.
type (
	// Float64Codec encodes []float64 points as raw IEEE-754 words.
	Float64Codec = durable.Float64Codec
	// BitvecCodec encodes BitVector points.
	BitvecCodec = durable.BitvecCodec
)

// DurableOptions configures the on-disk store of a durable index (fsync
// policy and cadence).
type DurableOptions = durable.Options

// FsyncPolicy selects when the write-ahead log is synced to stable
// storage; see FsyncAlways, FsyncInterval and FsyncNever.
type FsyncPolicy = durable.FsyncPolicy

// WAL fsync policies.
const (
	// FsyncAlways syncs after every record: no acknowledged mutation is
	// ever lost, at a per-mutation fsync cost.
	FsyncAlways = durable.FsyncAlways
	// FsyncInterval syncs at most once per DurableOptions.Interval: a
	// crash loses at most the last interval of mutations.
	FsyncInterval = durable.FsyncInterval
	// FsyncNever leaves syncing to the OS page cache (plus the forced
	// syncs at checkpoints): fastest, weakest.
	FsyncNever = durable.FsyncNever
)

// NewDurableShardedIndex builds an empty sharded index whose shards
// journal into per-shard subdirectories of dir (created if absent; it
// must not already hold a store). The index behaves exactly like
// NewShardedDynamicIndex(NewRand(seed), fam, L, nil, opts) — same
// repetition draws, same candidate streams — with every mutation
// additionally logged for recovery; shards checkpoint and recover in
// parallel. Close it to checkpoint and seal the store; DurableErr
// surfaces disk failures (the index keeps serving from memory either
// way).
func NewDurableShardedIndex[P any](dir string, seed uint64, fam Family[P], L int, codec PointCodec[P], opts ShardOptions, dopts DurableOptions) (*ShardedIndex[P], error) {
	return index.NewDurableSharded(dir, seed, fam, L, codec, opts, dopts)
}

// OpenShardedIndex recovers a sharded index written by
// NewDurableShardedIndex, opening all shards in parallel: segments load
// directly and the WAL tails replay, with zero hash evaluations. fam must
// be the family the store was created with (its per-repetition draws are
// re-sampled from the recorded seed).
func OpenShardedIndex[P any](dir string, fam Family[P], codec PointCodec[P], dyn DynamicOptions, dopts DurableOptions) (*ShardedIndex[P], error) {
	return index.OpenSharded(dir, fam, codec, dyn, dopts)
}

// ErrNotJournaled is reported by DurableErr when a mutation arrived
// after Close sealed the store: it was applied in memory but exists
// nowhere on disk.
var ErrNotJournaled = index.ErrNotJournaled

// ShardedSnapshot is an immutable, point-in-time view of a ShardedIndex:
// one pinned view per shard, unified under the global-id arithmetic and
// together representing the whole index at a single instant (established
// by the epoch barrier). Queries and scans over it are lock-free and
// observe one consistent id set while the live index keeps absorbing
// inserts, deletes and compactions. Obtain one with ShardedIndex.Snapshot;
// release it with Release when done.
type ShardedSnapshot[P any] = index.ShardedSnapshot[P]

// Source is a serving backend handle and the query surface every index
// backend shares (Index, ShardedIndex and ShardedSnapshot all satisfy
// it): CollectDistinct, Candidates, QueryBatch and NewQuerier. The Over
// constructors bind predicate veneers to one.
type Source[P any] = index.Source[P]

// NewAnnulusIndexOver wraps any serving backend — static, sharded, or a
// snapshot — in the Theorem 6.1 annulus-search
// algorithm. The veneer shares the backend's storage: mutations on a live
// backend are visible to subsequent queries immediately, and several
// veneers may wrap one backend.
func NewAnnulusIndexOver[P any](src Source[P], within func(q, x P) bool) *AnnulusIndex[P] {
	return index.NewAnnulusOver(src, within)
}

// NewRangeReporterOver wraps any serving backend — static, sharded, or a
// snapshot — in the Theorem 6.5 reporting algorithm.
func NewRangeReporterOver[P any](src Source[P], inRange func(q, x P) bool) *RangeReporter[P] {
	return index.NewRangeReporterOver(src, inRange)
}

// Querier is a reusable query-scratch object bound to one backend: an
// epoch-stamped visited array for deduplication, a negated-query buffer,
// and a reusable output buffer. Obtain one with NewQuerier on any backend
// (Index, ShardedIndex, ShardedSnapshot) or on a veneer's Source(); a Querier is not safe for concurrent use (use one
// per goroutine). Steady-state queries through a Querier perform no heap
// allocations; its CollectDistinct returns a slice that is only valid
// until the Querier's next use.
type Querier[P any] = index.Querier[P]

// Privacy (Section 6.4).

// DistanceEstimator is the PSI-based private distance estimation protocol.
type DistanceEstimator[P any] = privacy.Estimator[P]

// NewDistanceEstimator samples the protocol's shared randomness.
func NewDistanceEstimator[P any](rng *Rand, fam Family[P], pClose, pFar, eps float64) (*DistanceEstimator[P], error) {
	return privacy.NewEstimator(rng, fam, pClose, pFar, eps)
}

// PSIProtocol is a two-party private set intersection implementation.
type PSIProtocol = psi.Protocol

// PlaintextPSI returns the non-private reference PSI.
func PlaintextPSI() PSIProtocol { return psi.Plaintext{} }

// DHPSI returns the semi-honest commutative-encryption PSI.
func DHPSI() PSIProtocol { return psi.DH{} }

// HyperplaneIndex is the Section 6.1 orthogonal-vector search structure.
type HyperplaneIndex = index.HyperplaneIndex

// NewHyperplaneIndex builds a hyperplane-query index over unit vectors:
// queries return a point with |<x, q>| <= alpha.
func NewHyperplaneIndex(rng *Rand, d int, alpha, t float64, points [][]float64) *HyperplaneIndex {
	return index.NewHyperplane(rng, d, alpha, t, points)
}

// l_s-space lifting via random Fourier features (Section 2 remark).

// RFFKernel identifies the shift-invariant kernel of a feature map.
type RFFKernel = rff.Kernel

// Random-feature kernels.
const (
	GaussianKernel  = rff.Gaussian
	LaplacianKernel = rff.Laplacian
)

// LiftToKernelSpace lifts a unit-sphere family to R^d under the given
// kernel: the lifted CPF is approximately baseCPF(kernel(distance)).
func LiftToKernelSpace(kernel RFFKernel, d, features int, sigma float64, base Family[[]float64]) Family[[]float64] {
	return rff.NewFamily(kernel, d, features, sigma, base)
}

// Similarity joins (the paper's introductory motivation).

// JoinPair is one emitted pair of a similarity join.
type JoinPair = index.JoinPair

// JoinStats reports the work of a join.
type JoinStats = index.JoinStats

// Join runs a distance-sensitive similarity join between two sets: with a
// unimodal family it is an annulus join ("close but not too close").
func Join[P any](rng *Rand, fam Family[P], L int, setA, setB []P, verify func(a, b P) bool) ([]JoinPair, JoinStats) {
	return index.Join(rng, fam, L, setA, setB, verify)
}

// SelfJoin joins a set with itself, skipping the diagonal.
func SelfJoin[P any](rng *Rand, fam Family[P], L int, set []P, verify func(a, b P) bool) ([]JoinPair, JoinStats) {
	return index.SelfJoin(rng, fam, L, set, verify)
}

// NewParallelIndex builds an index with concurrent table construction.
func NewParallelIndex[P any](rng *Rand, fam Family[P], L int, points []P) *Index[P] {
	return index.NewParallel(rng, fam, L, points)
}

// Concurrent batch querying (the serving path): every index structure has
// a QueryBatch method fanning a slice of queries across a worker pool with
// deterministic results; see BatchOptions and BatchStats.

// QueryStats reports the work performed by a single query.
type QueryStats = index.QueryStats

// BatchOptions configures a concurrent batch query (worker count,
// per-query candidate cap, optional deterministic per-query randomness).
type BatchOptions = index.BatchOptions

// BatchStats aggregates work and latency percentiles over a query batch.
type BatchStats = index.BatchStats

// RunBatch fans fn over n query indices across a worker pool, splitting a
// private deterministic generator per index when opts.Rand is set, and
// returns the wall-clock duration of the run (for AggregateStats). It is
// the engine underneath every QueryBatch method.
func RunBatch(n int, opts BatchOptions, fn func(i int, rng *Rand)) time.Duration {
	return index.RunBatch(n, opts, fn)
}

// AggregateStats folds per-query stats and a wall-clock duration into a
// BatchStats with latency percentiles.
func AggregateStats(per []QueryStats, wall time.Duration) BatchStats {
	return index.AggregateStats(per, wall)
}

// JoinParallel computes the same join as Join — identical output and stats
// for the same rng stream — fanning the L repetitions across workers
// (workers <= 0 means GOMAXPROCS).
func JoinParallel[P any](rng *Rand, fam Family[P], L int, setA, setB []P, verify func(a, b P) bool, workers int) ([]JoinPair, JoinStats) {
	return index.JoinParallel(rng, fam, L, setA, setB, verify, workers)
}

// CPF design (fitting target CPFs over the Lemma 1.4 closure).

// FitTarget is a desired CPF given by sample points.
type FitTarget = cpfit.Target

// FitResult is a fitted mixture family with its error report.
type FitResult[P any] = cpfit.Result[P]

// FitGrid samples fn uniformly over [lo, hi] as a fit target.
func FitGrid(lo, hi float64, n int, fn func(float64) float64) FitTarget {
	return cpfit.Grid(lo, hi, n, fn)
}

// FitCPF finds non-negative mixture weights over powers of the base
// families (a Lemma 1.4 dictionary) approximating the target CPF in least
// squares, subject to total mass <= 1.
func FitCPF[P any](maxPower int, target FitTarget, bases ...Family[P]) (*FitResult[P], error) {
	return cpfit.Fit(cpfit.BuildDictionary(maxPower, bases...), target)
}

// Observability. The serving core carries an always-on metrics plane:
// striped lock-free counters, gauges and log2 latency histograms record
// every query, insert, delete, memtable freeze, compaction, GC fold,
// snapshot pin and WAL/segment write, plus a bounded ring-buffer trace of
// lifecycle events — with zero heap allocations on the steady-state query
// and insert paths. Metrics returns a point-in-time snapshot; the obshttp
// subpackage serves the same registry over HTTP (Prometheus text, expvar
// JSON, pprof).

// MetricsSnapshot is a point-in-time copy of the process-wide metrics
// registry: folded counter totals, gauge values, histogram snapshots, and
// the buffered lifecycle events (oldest first).
type MetricsSnapshot = obs.Snapshot

// MetricsHistogram is one folded latency histogram; its Quantile method
// estimates percentiles (p50/p99/p999) by interpolation inside log2
// buckets.
type MetricsHistogram = obs.HistogramSnapshot

// TraceEvent is one buffered lifecycle event: a monotone sequence number,
// timestamp, kind ("freeze.inline", "freeze.snapshot", "compact.all", "gc",
// "snapshot.fallback", "wal.rotate", "recover", "durable.fault", ...) and
// two kind-specific integer arguments.
type TraceEvent = obs.Event

// Metrics snapshots the process-wide metrics registry. Each metric is
// internally consistent; the set is not a global atomic cut. The snapshot
// is a plain value — retain, diff and serialize it freely.
func Metrics() MetricsSnapshot { return obs.Default.Snapshot() }

// Serving edge. The serve subpackage is a stdlib-only HTTP front end over
// a ShardedIndex: it coalesces queries arriving on separate connections
// into shared batch calls (the dispatcher flushes whatever is parked the
// moment it is free, so batches grow with load), sheds load with 429/503
// + Retry-After when an in-flight budget or queue watermark is exceeded,
// answers 503 rather than acknowledge a mutation the durable store failed
// to journal, and answers repeated queries from a hot-query cache keyed
// by the per-repetition hash-key signature, invalidated wholesale
// whenever the index epoch moves. See cmd/dshserve for the standalone
// daemon and dshbench -serve for the socket-level load generator.

// Server is the HTTP serving edge over one ShardedIndex; create with
// NewServer, mount Handler on an http.Server, shut down with Drain.
type Server = serve.Server

// ServeOptions configures a Server; the zero value of every field except
// Dim is usable. BatchSize caps one dispatcher flush; no timer holds a
// flush back, since queries arriving during one flush join the next.
type ServeOptions = serve.Options

// NewServer builds a serving edge over ix and starts its dispatcher. Build
// ix with the options dshserve uses (BackgroundCompaction on, under
// CompactAll), since every snapshot refresh after a write cuts a segment
// that only a merge removes.
func NewServer(ix *ShardedIndex[[]float64], opts ServeOptions) *Server {
	return serve.New(ix, opts)
}

// Kernel density estimation (the paper's future-work application).

// KDEstimator estimates kernel density sums by collision counting: with a
// family whose CPF equals the kernel, matched-bucket sizes are unbiased
// density estimates and queries never scan the data.
type KDEstimator[P any] = kde.Estimator[P]

// NewKDEstimator builds a density estimator with L repetitions.
func NewKDEstimator[P any](rng *Rand, fam Family[P], L int, points []P) *KDEstimator[P] {
	return kde.New(rng, fam, L, points)
}
