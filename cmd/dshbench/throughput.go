package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dsh"
	"dsh/internal/index"
	"dsh/internal/sphere"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// heapAllocated returns the cumulative bytes allocated so far; deltas
// around a query loop expose the per-query allocation cost of the serving
// path (the flat-table engine should be near zero in steady state).
func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// throughputConfig parameterizes the serving-throughput mode: an index
// over n random unit vectors, answering query batches through the
// concurrent batch engine and reporting QPS plus latency percentiles
// against the sequential per-query loop. The default (Family == "") runs
// the annulus query structure; -family switches to distinct-candidate
// serving under the selected hash family and adds a hash-vs-probe
// cost-split row.
type throughputConfig struct {
	Points    int
	Queries   int
	BatchSize int
	Workers   int
	Dim       int
	Seed      uint64
	Family    string
}

func runThroughput(w io.Writer, cfg throughputConfig) error {
	if cfg.Family != "" {
		return runThroughputFamily(w, cfg)
	}
	rng := xrand.New(cfg.Seed)
	const alphaTarget = 0.5
	fam := sphere.NewAnnulus(cfg.Dim, alphaTarget, 1.8)
	L := index.RepetitionsForCPF(fam.CPF().Eval(alphaTarget))
	within := func(q, x []float64) bool {
		a := vec.Dot(q, x)
		return a >= 0.3 && a <= 0.7
	}

	points := workload.SpherePoints(rng, cfg.Points, cfg.Dim)
	// Half the queries are planted at the CPF peak of an indexed point;
	// half are uniform over the sphere.
	queries := make([][]float64, cfg.Queries)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = workload.PointAtAlpha(rng, points[i%cfg.Points], alphaTarget)
		} else {
			queries[i] = vec.RandomUnit(rng, cfg.Dim)
		}
	}

	buildStart := time.Now()
	ai := index.NewAnnulus[[]float64](rng, fam, L, points, within)
	buildTime := time.Since(buildStart)
	fmt.Fprintf(w, "throughput: n=%d queries=%d batch=%d workers=%d dim=%d L=%d\n",
		cfg.Points, cfg.Queries, cfg.BatchSize, cfg.Workers, cfg.Dim, L)
	fmt.Fprintf(w, "build: %v\n", buildTime)

	// Sequential baseline: one query at a time, driving one reusable
	// Querier so the loop exercises the zero-allocation steady state.
	qr := ai.Source().NewQuerier()
	seqPer := make([]index.QueryStats, len(queries))
	seqFound := 0
	seqAllocs := heapAllocated()
	seqStart := time.Now()
	for i, q := range queries {
		qStart := time.Now()
		id, st := ai.QueryWith(qr, q)
		st.Latency = time.Since(qStart)
		seqPer[i] = st
		if id >= 0 {
			seqFound++
		}
	}
	seqWall := time.Since(seqStart)
	// Measure before aggregation so B/q reflects the query path alone.
	seqAllocs = heapAllocated() - seqAllocs
	seqAgg := index.AggregateStats(seqPer, seqWall)
	printThroughputRow(w, "sequential", seqAgg, seqFound, seqAllocs)

	// Batched: fan each batch of BatchSize queries across the pool. The
	// allocation delta is scoped to the QueryBatch calls themselves so the
	// B/q column is comparable with the sequential row (harness
	// bookkeeping like batchPer growth is excluded from both).
	opts := index.BatchOptions{Workers: cfg.Workers}
	var batchPer []index.QueryStats
	batchFound := 0
	var batchAllocs uint64
	var wall time.Duration
	for lo := 0; lo < len(queries); lo += cfg.BatchSize {
		hi := lo + cfg.BatchSize
		if hi > len(queries) {
			hi = len(queries)
		}
		before := heapAllocated()
		ids, per, agg := ai.QueryBatch(queries[lo:hi], opts)
		batchAllocs += heapAllocated() - before
		for _, id := range ids {
			if id >= 0 {
				batchFound++
			}
		}
		batchPer = append(batchPer, per...)
		wall += agg.Wall
	}
	batchAgg := index.AggregateStats(batchPer, wall)
	printThroughputRow(w, "batch", batchAgg, batchFound, batchAllocs)
	if seqAgg.Wall > 0 && batchAgg.Wall > 0 {
		fmt.Fprintf(w, "speedup: %.2fx\n", seqAgg.Wall.Seconds()/batchAgg.Wall.Seconds())
	}
	if seqFound != batchFound {
		return fmt.Errorf("sequential found %d, batch found %d (expected identical)", seqFound, batchFound)
	}
	return nil
}

// runThroughputFamily benchmarks distinct-candidate serving under the
// -family flag: a static Index over the selected family, a sequential
// scalar loop through one reusable Querier, then the concurrent batch
// engine (whose default repetition-blocked pre-hash exercises
// core.BatchHasher when the family provides it), followed by the
// hash-vs-probe cost split of the scalar path.
func runThroughputFamily(w io.Writer, cfg throughputConfig) error {
	fam, L, err := workload.ServingFamily(cfg.Family, cfg.Dim)
	if err != nil {
		return err
	}
	rng := xrand.New(cfg.Seed)
	points := workload.SpherePoints(rng, cfg.Points, cfg.Dim)
	queries := workload.SpherePoints(rng, cfg.Queries, cfg.Dim)

	buildStart := time.Now()
	ix := index.New(rng, fam, L, points)
	buildTime := time.Since(buildStart)
	fmt.Fprintf(w, "throughput: family=%s n=%d queries=%d batch=%d workers=%d dim=%d L=%d\n",
		fam.Name(), cfg.Points, cfg.Queries, cfg.BatchSize, cfg.Workers, cfg.Dim, L)
	fmt.Fprintf(w, "build: %v\n", buildTime)

	evalsBefore := dsh.Metrics().Counters["dsh_query_hash_evals_total"]

	// Sequential baseline: the scalar zero-allocation serving loop, whose
	// per-query latency includes the L hash evaluations — the minuend of
	// the cost split below.
	qr := ix.NewQuerier()
	seqPer := make([]index.QueryStats, len(queries))
	seqAllocs := heapAllocated()
	seqStart := time.Now()
	for i, q := range queries {
		qStart := time.Now()
		_, st := qr.CollectDistinct(q, 0)
		st.Latency = time.Since(qStart)
		seqPer[i] = st
	}
	seqWall := time.Since(seqStart)
	seqAllocs = heapAllocated() - seqAllocs
	seqAgg := index.AggregateStats(seqPer, seqWall)
	seqEvals := dsh.Metrics().Counters["dsh_query_hash_evals_total"] - evalsBefore
	printFamilyRow(w, "sequential", seqAgg, seqAllocs)

	// Batched serving through the repetition-blocked pre-hash engine.
	opts := index.BatchOptions{Workers: cfg.Workers}
	var batchPer []index.QueryStats
	var batchAllocs uint64
	var wall time.Duration
	for lo := 0; lo < len(queries); lo += cfg.BatchSize {
		hi := lo + cfg.BatchSize
		if hi > len(queries) {
			hi = len(queries)
		}
		before := heapAllocated()
		_, per, agg := ix.QueryBatch(queries[lo:hi], opts)
		batchAllocs += heapAllocated() - before
		batchPer = append(batchPer, per...)
		wall += agg.Wall
	}
	batchAgg := index.AggregateStats(batchPer, wall)
	printFamilyRow(w, "batch", batchAgg, batchAllocs)
	if seqAgg.Wall > 0 && batchAgg.Wall > 0 {
		fmt.Fprintf(w, "speedup: %.2fx\n", seqAgg.Wall.Seconds()/batchAgg.Wall.Seconds())
	}

	hashPerQ := hashCostPerQuery(rng, fam, L, queries)
	printCostSplit(w, hashPerQ, seqAgg.LatMean, seqAgg, seqEvals)
	return nil
}

func printFamilyRow(w io.Writer, label string, agg index.BatchStats, allocs uint64) {
	fmt.Fprintf(w, "%-10s qps=%10.0f  p50=%-10v p90=%-10v p99=%-10v max=%-10v cand/q=%.1f probes/q=%.1f B/q=%.0f\n",
		label, agg.QPS, agg.LatP50, agg.LatP90, agg.LatP99, agg.LatMax,
		float64(agg.Candidates)/float64(agg.Queries),
		float64(agg.Probes)/float64(agg.Queries),
		float64(allocs)/float64(agg.Queries))
}

func printThroughputRow(w io.Writer, label string, agg index.BatchStats, found int, allocs uint64) {
	fmt.Fprintf(w, "%-10s qps=%10.0f  p50=%-10v p90=%-10v p99=%-10v max=%-10v cand/q=%.1f B/q=%-8.0f found=%d/%d\n",
		label, agg.QPS, agg.LatP50, agg.LatP90, agg.LatP99, agg.LatMax,
		float64(agg.Candidates)/float64(agg.Queries), float64(allocs)/float64(agg.Queries), found, agg.Queries)
}
