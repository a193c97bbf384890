package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/xrand"
)

// hashCostPerQuery times a dedicated hashing pass — L freshly sampled
// draws' query hashers over every query, exactly the per-query hashing
// work of the scalar serving path — and returns the mean per-query cost.
// Sampling fresh draws keeps the measurement independent of the index
// being benchmarked while hashing statistically identical functions.
func hashCostPerQuery(rng *xrand.Rand, fam core.Family[[]float64], L int, queries [][]float64) time.Duration {
	if len(queries) == 0 || L <= 0 {
		return 0
	}
	pairs := make([]core.Pair[[]float64], L)
	for i := range pairs {
		pairs[i] = fam.Sample(rng)
	}
	var sink uint64
	start := time.Now()
	for _, q := range queries {
		for _, pair := range pairs {
			sink ^= pair.G.Hash(q)
		}
	}
	wall := time.Since(start)
	runtime.KeepAlive(sink)
	return wall / time.Duration(len(queries))
}

// printCostSplit renders the hash-vs-probe cost decomposition of a serving
// run: the measured per-query hash cost, the remainder of the scalar
// per-query latency attributed to table probing and candidate handling,
// and the per-query hash-eval / probe counts (hash evals from the metrics
// plane's dsh_query_hash_evals_total delta over the run, probes from the
// batch stats' Probes counter).
func printCostSplit(w io.Writer, hashPerQ time.Duration, scalarLatMean time.Duration, agg index.BatchStats, hashEvals uint64) {
	probePerQ := scalarLatMean - hashPerQ
	if probePerQ < 0 {
		probePerQ = 0
	}
	pct := 0.0
	if scalarLatMean > 0 {
		pct = 100 * float64(hashPerQ) / float64(scalarLatMean)
	}
	fmt.Fprintf(w, "%-12s hash/q=%-10v probe/q=%-10v hash-share=%4.1f%% evals/q=%.1f probes/q=%.1f\n",
		"cost-split", hashPerQ, probePerQ, pct,
		float64(hashEvals)/float64(agg.Queries),
		float64(agg.Probes)/float64(agg.Queries))
}
