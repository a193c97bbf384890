package index

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dsh/internal/core"
	"dsh/internal/xrand"
)

// JoinPair is one output pair of a similarity join (ids into the two input
// sets, A-side first). Pairs are emitted with A < B ordering normalized
// only in the self-join case.
type JoinPair struct {
	A, B int32
}

// JoinStats reports the work of a join.
type JoinStats struct {
	// BucketPairs is the number of candidate pairs generated by hash
	// collisions (with duplicates across repetitions).
	BucketPairs int
	// Verified is the number of distinct candidate pairs whose predicate
	// was evaluated.
	Verified int
	// Emitted is the number of pairs in the output.
	Emitted int
}

// Join computes a distance-sensitive similarity join between setA and
// setB: all pairs (a, b) passing the verify predicate, discovered through
// L repetitions of the DSH family. This is the similarity-join operator
// the paper's introduction motivates, run with an arbitrary CPF: with a
// decreasing CPF it is the classical LSH join; with a unimodal CPF it is
// an *annulus join* ("close but not too close" pairs, e.g. near-duplicate
// detection that ignores exact duplicates); with an increasing CPF it
// pairs far-apart points.
//
// Each repetition samples (h, g), buckets setA under h and setB under g,
// and verifies the candidate pairs in matching buckets. A pair colliding
// under the family's CPF value f is found with probability 1-(1-f)^L.
// Duplicate candidates across repetitions are suppressed before
// verification. Join calls verify from a single goroutine, exactly once
// per distinct candidate pair.
func Join[P any](rng *xrand.Rand, fam core.Family[P], L int, setA, setB []P, verify func(a, b P) bool) ([]JoinPair, JoinStats) {
	return joinWorkers(rng, fam, L, setA, setB, verify, 1)
}

// JoinParallel computes the same join as Join — identical output pairs and
// identical stats for the same rng stream — but fans both the L hashing
// repetitions and the verification of candidate pairs across a pool of
// workers (<= 0 means GOMAXPROCS). The L (h, g) pairs are sampled
// sequentially from rng before the workers start, so Join and JoinParallel
// consume rng identically; candidates are deduplicated single-threaded in
// repetition order, verified concurrently, and emitted in first-occurrence
// order, preserving Join's output exactly.
//
// Thread-safety contract: verify is called exactly once per distinct
// candidate pair, but concurrently from multiple goroutines, so it must be
// safe for concurrent use (pure functions of the two points, the common
// case, trivially are). Use Join if verify mutates shared state.
func JoinParallel[P any](rng *xrand.Rand, fam core.Family[P], L int, setA, setB []P, verify func(a, b P) bool, workers int) ([]JoinPair, JoinStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return joinWorkers(rng, fam, L, setA, setB, verify, workers)
}

// joinCand is one candidate pair discovered by a repetition. Verification
// happens at merge time on the first occurrence only, so verify is called
// exactly once per distinct pair regardless of worker count.
type joinCand struct {
	a, b int32
}

func joinWorkers[P any](rng *xrand.Rand, fam core.Family[P], L int, setA, setB []P, verify func(a, b P) bool, workers int) ([]JoinPair, JoinStats) {
	if L <= 0 {
		panic("index: repetitions must be positive")
	}
	selfJoin := len(setA) > 0 && len(setA) == len(setB) && &setA[0] == &setB[0]
	pairs := make([]core.Pair[P], L)
	for rep := range pairs {
		pairs[rep] = fam.Sample(rng)
	}

	// scanRep walks repetition rep's bucket collisions in the canonical
	// (j, bucket-order) order, emitting each normalized candidate. keys is
	// caller-provided scratch of len(setA) so concurrent repetitions do
	// not share buffers.
	scanRep := func(rep int, keys []uint64, emit func(a, b int32)) {
		pair := pairs[rep]
		hashColumn(pair.H, setA, keys)
		table := buildFlatTable(keys)
		for j, q := range setB {
			key := pair.G.Hash(q)
			for _, i := range table.lookup(key) {
				a, b := i, int32(j)
				if selfJoin {
					if a == b {
						continue
					}
					if a > b {
						a, b = b, a
					}
				}
				emit(a, b)
			}
		}
	}

	// consume deduplicates across repetitions and verifies each distinct
	// pair exactly once, in first-occurrence order. Pair ids are composite
	// (a << 32 | b) keys in an open-addressed set, which probes a flat
	// array instead of chasing map buckets.
	var stats JoinStats
	seen := newU64Set(len(setA) + len(setB))
	var out []JoinPair
	consume := func(a, b int32) {
		stats.BucketPairs++
		id := uint64(uint32(a))<<32 | uint64(uint32(b))
		if !seen.add(id) {
			return
		}
		stats.Verified++
		if verify(setA[a], setB[b]) {
			out = append(out, JoinPair{A: a, B: b})
			stats.Emitted++
		}
	}

	// The hashing phase cannot use more workers than repetitions, but the
	// verify fan-out is per distinct pair and keeps the caller's full
	// worker count — with few repetitions and an expensive predicate,
	// verification is where the parallelism pays.
	hashWorkers := workers
	if hashWorkers > L {
		hashWorkers = L
	}
	if workers <= 1 {
		// Stream: no candidate buffering beyond the dedup set.
		keys := make([]uint64, len(setA))
		for rep := 0; rep < L; rep++ {
			scanRep(rep, keys, consume)
		}
	} else {
		// Workers buffer each repetition's candidates; deduplication then
		// runs single-threaded in repetition order, so the set of distinct
		// pairs and their first-occurrence order match the sequential
		// stream exactly. Peak memory is O(bucket pairs) here versus
		// O(distinct pairs) for the stream — the price of running
		// repetitions concurrently.
		perRep := make([][]joinCand, L)
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < hashWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				keys := make([]uint64, len(setA))
				for {
					rep := int(cursor.Add(1)) - 1
					if rep >= L {
						return
					}
					var cands []joinCand
					scanRep(rep, keys, func(a, b int32) {
						cands = append(cands, joinCand{a: a, b: b})
					})
					perRep[rep] = cands
				}
			}()
		}
		wg.Wait()
		var distinct []joinCand
		for rep, cands := range perRep {
			for _, c := range cands {
				stats.BucketPairs++
				id := uint64(uint32(c.a))<<32 | uint64(uint32(c.b))
				if seen.add(id) {
					distinct = append(distinct, c)
				}
			}
			perRep[rep] = nil
		}
		// Fan verification across the worker pool: verify-dominated joins
		// spend almost all their time here, and each distinct pair is
		// independent. pass[i] records the verdict so emission can run in
		// first-occurrence order, matching the sequential stream.
		stats.Verified = len(distinct)
		pass := make([]bool, len(distinct))
		RunBatch(len(distinct), BatchOptions{Workers: workers}, func(i int, _ *xrand.Rand) {
			c := distinct[i]
			pass[i] = verify(setA[c.a], setB[c.b])
		})
		for i, c := range distinct {
			if pass[i] {
				out = append(out, JoinPair{A: c.a, B: c.b})
				stats.Emitted++
			}
		}
	}

	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out, stats
}

// SelfJoin runs Join with setA = setB, normalizing pair order and skipping
// the diagonal.
func SelfJoin[P any](rng *xrand.Rand, fam core.Family[P], L int, set []P, verify func(a, b P) bool) ([]JoinPair, JoinStats) {
	return Join(rng, fam, L, set, set, verify)
}

// NewParallel builds an Index like New but samples and fills the L
// repetitions concurrently across min(L, GOMAXPROCS) workers. The result
// is deterministic for a given seed stream: each repetition derives an
// independent generator split before the workers start.
func NewParallel[P any](rng *xrand.Rand, family core.Family[P], L int, points []P) *Index[P] {
	ix := newIndexShell(family, L, points)
	rngs := make([]*xrand.Rand, L)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > L {
		workers = L
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys := make([]uint64, len(points))
			for i := range next {
				ix.pairs[i] = family.Sample(rngs[i])
				hashColumn(ix.pairs[i].H, points, keys)
				ix.tables[i] = buildFlatTable(keys)
			}
		}()
	}
	for i := 0; i < L; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	ix.freezeNegG()
	return ix
}
