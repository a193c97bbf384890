package index

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsh/internal/obs"
	"dsh/internal/stats"
	"dsh/internal/xrand"
)

// sortedQuantile reads the q-th quantile off an already sorted sample with
// the same linear interpolation as stats.Quantile.
func sortedQuantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// BatchOptions configures a concurrent batch query.
type BatchOptions struct {
	// Workers is the number of concurrent workers; values <= 0 mean
	// GOMAXPROCS.
	Workers int
	// MaxCandidates caps the number of distinct candidates collected per
	// query by every distinct-candidate batch path — QueryBatch on any
	// backend and ShardedSnapshot.QueryBatchSigned — exactly like the max
	// argument of CollectDistinct (<= 0 means no limit). The annulus and
	// range-reporting batch paths ignore it.
	MaxCandidates int
	// NoBlockHash disables the repetition-blocked batch pre-hash in the
	// distinct-candidate and range-reporting batch paths. By default those
	// paths hash the whole query block against one repetition's draws at a
	// time before any probing starts (using core.BatchHasher when the
	// family's query hasher implements it), which keeps each repetition's
	// parameters cache-resident across the block; results and stats are
	// bit-identical either way. Per-query Latency excludes the shared
	// pre-hash; Wall (and therefore QPS) includes it. The annulus batch
	// path never pre-hashes: its 8L early termination usually stops after
	// a few repetitions, so hashing all L up front would be wasted work.
	NoBlockHash bool
	// Rand, when non-nil, supplies per-query deterministic generators: it
	// is Split once per query in query order before any worker starts, so
	// randomized per-query work is reproducible regardless of how queries
	// are scheduled onto workers. The batch entry points in this package
	// need no randomness themselves; the field exists for callers driving
	// randomized verification through RunBatch.
	Rand *xrand.Rand
}

func (o BatchOptions) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BatchStats aggregates the work and latency of a batch of queries.
type BatchStats struct {
	// Queries is the number of queries in the batch.
	Queries int
	// Probes, Candidates, Distinct and Verified sum the per-query
	// QueryStats counters across the batch.
	Probes     int64
	Candidates int64
	Distinct   int64
	Verified   int64
	// Wall is the wall-clock time of the whole batch (all workers).
	Wall time.Duration
	// QPS is Queries divided by Wall, in queries per second.
	QPS float64
	// Latency percentiles over the per-query latencies.
	LatMean time.Duration
	LatP50  time.Duration
	LatP90  time.Duration
	LatP99  time.Duration
	LatMax  time.Duration
}

// AggregateStats folds per-query stats and a wall-clock duration into a
// BatchStats with latency percentiles.
func AggregateStats(per []QueryStats, wall time.Duration) BatchStats {
	agg := BatchStats{Queries: len(per), Wall: wall}
	if len(per) == 0 {
		return agg
	}
	lats := make([]float64, len(per))
	for i, s := range per {
		agg.Probes += int64(s.Probes)
		agg.Candidates += int64(s.Candidates)
		agg.Distinct += int64(s.Distinct)
		agg.Verified += int64(s.Verified)
		lats[i] = float64(s.Latency)
	}
	if wall > 0 {
		agg.QPS = float64(len(per)) / wall.Seconds()
	}
	agg.LatMean = time.Duration(stats.Mean(lats))
	// Sort once and read all quantiles off the sorted sample rather than
	// paying stats.Quantile's copy+sort per percentile.
	sort.Float64s(lats)
	agg.LatP50 = time.Duration(sortedQuantile(lats, 0.50))
	agg.LatP90 = time.Duration(sortedQuantile(lats, 0.90))
	agg.LatP99 = time.Duration(sortedQuantile(lats, 0.99))
	agg.LatMax = time.Duration(lats[len(lats)-1])
	return agg
}

// RunBatch fans fn over n query indices across a worker pool and returns
// the wall-clock duration of the run. Queries are claimed from a shared
// cursor, so stragglers do not idle the pool. When opts.Rand is non-nil
// each index i receives a private generator derived by the i-th Split of
// opts.Rand (split sequentially before the workers start); otherwise the
// rng argument is nil. fn must treat distinct indices as independent: it
// is called concurrently from multiple goroutines.
func RunBatch(n int, opts BatchOptions, fn func(i int, rng *xrand.Rand)) time.Duration {
	return runBatchScratch(n, opts,
		func() struct{} { return struct{}{} },
		func(struct{}) {},
		func(i int, rng *xrand.Rand, _ struct{}) { fn(i, rng) })
}

// runBatchScratch is RunBatch with per-worker scratch: every worker
// acquires one scratch value before claiming queries and releases it when
// the batch drains. The QueryBatch entry points use it to hand each worker
// a reusable Querier, so concurrent queries share no dedup state and the
// steady-state batch path does not allocate per query.
func runBatchScratch[T any](n int, opts BatchOptions, acquire func() T, release func(T), fn func(i int, rng *xrand.Rand, scratch T)) time.Duration {
	if n <= 0 {
		return 0
	}
	var rngs []*xrand.Rand
	if opts.Rand != nil {
		rngs = make([]*xrand.Rand, n)
		for i := range rngs {
			rngs[i] = opts.Rand.Split()
		}
	}
	workers := opts.workerCount(n)
	start := time.Now()
	if workers == 1 {
		scratch := acquire()
		for i := 0; i < n; i++ {
			if rngs != nil {
				fn(i, rngs[i], scratch)
			} else {
				fn(i, nil, scratch)
			}
		}
		release(scratch)
		return recordBatch(start)
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := acquire()
			defer release(scratch)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if rngs != nil {
					fn(i, rngs[i], scratch)
				} else {
					fn(i, nil, scratch)
				}
			}
		}()
	}
	wg.Wait()
	return recordBatch(start)
}

// recordBatch counts one drained batch and its wall time. Batches are
// coarse-grained, so a fresh stripe per batch spreads updates without
// the components needing a persistent stripe id.
func recordBatch(start time.Time) time.Duration {
	wall := time.Since(start)
	st := obs.NextStripe()
	mBatches.Inc(st)
	mBatchLatency.Observe(st, uint64(wall))
	return wall
}

// runBatch is the batch skeleton behind every batch entry point. It opens
// and closes one empty read window in the caller's goroutine first, so a
// backend that refuses reads (a released snapshot) panics there rather
// than inside a worker goroutine, where the panic would kill the process.
// It then pre-hashes the query block repetition by repetition (see
// blockHash) — always in signed mode, otherwise unless opts.NoBlockHash is
// set or the batch is too small — and in signed mode folds every query's
// signature out of the key block. Finally it fans the queries across
// opts.Workers workers with one pooled Querier each: query answers query
// i through a querier holding that query's column of the key block and
// returns its stats. Per-query Latency excludes the shared pre-hash; the
// batch Wall (and therefore QPS) includes it.
func (rp *readPath[P]) runBatch(queries []P, opts BatchOptions, signed bool, query func(i int, qr *Querier[P]) QueryStats) ([]uint64, []QueryStats, BatchStats) {
	rp.src.beginRead()
	rp.src.endRead()
	per := make([]QueryStats, len(queries))
	var bk *blockKeys
	preStart := time.Now()
	switch {
	case signed && len(queries) > 0:
		bk = rp.blockHashAll(queries, opts.workerCount(len(queries)))
	case !signed && !opts.NoBlockHash:
		bk = rp.blockHash(queries, opts.workerCount(len(queries)))
	}
	var preWall time.Duration
	if bk != nil {
		preWall = time.Since(preStart)
		defer bk.release()
	}
	var sigs []uint64
	if signed {
		sigs = make([]uint64, len(queries))
		for i := range sigs {
			sigs[i] = bk.sig(i)
		}
	}
	wall := runBatchScratch(len(queries), opts, rp.acquireSQ, rp.releaseSQ,
		func(i int, _ *xrand.Rand, qr *Querier[P]) {
			start := time.Now()
			if bk != nil {
				qr.preKeys, qr.preStride, qr.preOff = bk.keys, bk.q, i
			}
			per[i] = query(i, qr)
			qr.preKeys = nil
			per[i].Latency = time.Since(start)
		})
	return sigs, per, AggregateStats(per, wall+preWall)
}

// collectBatch is the distinct-candidate batch engine behind QueryBatch
// and ShardedSnapshot.QueryBatchSigned. Results are identical to
// sequential CollectDistinct(q, opts.MaxCandidates) calls in query order;
// signed mode only forces the key block and returns the signatures folded
// from it, so its ids and stats are bit-identical to the unsigned mode's.
func (rp *readPath[P]) collectBatch(queries []P, opts BatchOptions, signed bool) ([][]int, []uint64, []QueryStats, BatchStats) {
	out := make([][]int, len(queries))
	sigs, per, agg := rp.runBatch(queries, opts, signed, func(i int, qr *Querier[P]) QueryStats {
		res, st := qr.CollectDistinct(queries[i], opts.MaxCandidates)
		out[i] = ownedIDs(res)
		return st
	})
	return out, sigs, per, agg
}

// QueryBatch collects distinct candidates for every query concurrently,
// fanning the batch across opts.Workers workers with one pooled Querier
// per worker (so the steady-state batch path does not allocate per
// query). Results are identical to calling
// CollectDistinct(q, opts.MaxCandidates) sequentially for each query, in
// query order; only the wall-clock time changes. Per-query stats
// (including latency) and aggregated batch stats are returned alongside
// the candidate lists. Over a live dynamic or sharded backend, mutations
// and compactions may proceed concurrently: each query sees one
// consistent read window, and its QueryStats aggregate the probes and
// candidates of every layer (and every shard) for each repetition it
// executed.
func (rp *readPath[P]) QueryBatch(queries []P, opts BatchOptions) ([][]int, []QueryStats, BatchStats) {
	out, _, per, agg := rp.collectBatch(queries, opts, false)
	return out, per, agg
}

// QueryBatch answers every annulus query concurrently, over any backend.
// Element i of the returned slice is exactly what Query(queries[i])
// returns: the id of some point within the report interval, or -1 after
// the 8L early termination bound. This path skips the repetition-blocked
// pre-hash on purpose: annulus queries usually terminate after scanning a
// few repetitions, so hashing every query against all L draws up front
// would mostly be thrown away.
func (ai *AnnulusIndex[P]) QueryBatch(queries []P, opts BatchOptions) ([]int, []QueryStats, BatchStats) {
	out := make([]int, len(queries))
	opts.NoBlockHash = true
	_, per, agg := ai.src.reads().runBatch(queries, opts, false, func(i int, qr *Querier[P]) QueryStats {
		var st QueryStats
		out[i], st = qr.annulusQuery(queries[i], ai.within)
		return st
	})
	return out, per, agg
}

// QueryBatch runs every range-reporting query concurrently, over any
// backend. Element i of the returned slice is exactly what
// Query(queries[i]) returns.
func (rr *RangeReporter[P]) QueryBatch(queries []P, opts BatchOptions) ([][]int, []QueryStats, BatchStats) {
	out := make([][]int, len(queries))
	_, per, agg := rr.src.reads().runBatch(queries, opts, false, func(i int, qr *Querier[P]) QueryStats {
		var st QueryStats
		out[i], st = qr.appendRange(nil, queries[i], rr.inRange)
		return st
	})
	return out, per, agg
}

// QueryBatch answers every hyperplane query concurrently, mirroring
// Query element-wise.
func (hi *HyperplaneIndex) QueryBatch(queries [][]float64, opts BatchOptions) ([]int, []QueryStats, BatchStats) {
	return hi.inner.QueryBatch(queries, opts)
}
