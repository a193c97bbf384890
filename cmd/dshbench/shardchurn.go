package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/stats"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// The multi-writer churn benchmark: W concurrent writer goroutines pump
// inserts and deletes into a ShardedIndex while query batches run against
// it, first with the requested shard count and then with a single shard —
// the single-lock baseline — so the report shows what sharding buys under
// write contention: multi-writer insert p50/p99 and serving QPS, side by
// side.

// shardPassResult carries one pass's measurements.
type shardPassResult struct {
	shards    int
	build     time.Duration
	insertLat []float64
	writeWall time.Duration
	churnAgg  index.BatchStats
	compact   time.Duration
	postAgg   index.BatchStats
	live      int
	preGC     index.GCStats
	postGC    index.GCStats
}

func runShardedChurn(w io.Writer, cfg churnConfig, opts index.DynamicOptions) error {
	rng := xrand.New(cfg.Seed)
	fam, L, err := workload.ServingFamily(orDefault(cfg.Family, "simhash"), cfg.Dim)
	if err != nil {
		return err
	}
	initial := cfg.Points / 2
	pts := workload.SpherePoints(rng, cfg.Points, cfg.Dim)
	queries := workload.SpherePoints(rng, cfg.Queries, cfg.Dim)
	// main.go rejects non-positive values before this mode is reached.
	shards, writers := cfg.Shards, cfg.Writers

	fmt.Fprintf(w, "churn: family=%s n0=%d inserts=%d queries=%d batch=%d workers=%d writers=%d shards=%d dim=%d L=%d policy=%s deletes=%.2f routing=%s\n",
		fam.Name(), initial, cfg.Points-initial, cfg.Queries, cfg.BatchSize, cfg.Workers, writers, shards, cfg.Dim, L,
		orDefault(cfg.Policy, "all"), cfg.Deletes, orDefault(cfg.Routing, "rr"))

	// Sharded pass first, then the single-shard (single structural lock)
	// baseline over the same point and query streams.
	passes := []int{shards}
	if shards > 1 {
		passes = append(passes, 1)
	}
	results := make([]shardPassResult, 0, len(passes))
	for _, k := range passes {
		res := shardedChurnPass(cfg, opts, fam, L, pts, queries, initial, k, writers)
		results = append(results, res)
		label := fmt.Sprintf("shards=%d", k)
		if k == 1 && shards > 1 {
			label = "baseline(1)"
		}
		fmt.Fprintf(w, "%s: build=%v live=%d compact=%v\n", label, res.build, res.live, res.compact)
		printGCRow(w, label+" gc pre", res.preGC)
		printGCRow(w, label+" gc post", res.postGC)
		printInsertRowLabel(w, label+" ins", res.insertLat, res.writeWall)
		printShardChurnRow(w, label+" churn", res.churnAgg)
		printShardChurnRow(w, label+" post", res.postAgg)
	}
	if len(results) == 2 {
		a, b := results[0], results[1]
		p99a := stats.Quantile(a.insertLat, 0.99)
		p99b := stats.Quantile(b.insertLat, 0.99)
		if p99a > 0 && b.churnAgg.QPS > 0 {
			fmt.Fprintf(w, "sharding: insert p99 %.2fx lower, churn qps %.2fx vs single lock\n",
				p99b/p99a, a.churnAgg.QPS/b.churnAgg.QPS)
		}
	}
	return nil
}

// shardedChurnPass builds a ShardedIndex with k shards over the first
// half of pts, then runs `writers` concurrent insert/delete goroutines
// over the second half while query batches cycle against the index; after
// the writers drain it compacts and measures the steady state.
func shardedChurnPass(cfg churnConfig, opts index.DynamicOptions, fam core.Family[[]float64], L int,
	pts, queries [][]float64, initial, k, writers int) shardPassResult {

	keyed := cfg.Routing == "hash"
	buildStart := time.Now()
	var sx *index.ShardedIndex[[]float64]
	if keyed {
		// Hash routing: every point enters through InsertKeyed under its
		// stream position as key, including the initial build, so deletes
		// can target keys and leveled GC has a key table to remap.
		sx = index.NewSharded(xrand.New(cfg.Seed), fam, L, nil,
			index.ShardOptions{Shards: k, Routing: index.RouteHash, Dynamic: opts})
		for i, p := range pts[:initial] {
			sx.InsertKeyed(uint64(i), p)
		}
	} else {
		sx = index.NewSharded(xrand.New(cfg.Seed), fam, L, pts[:initial],
			index.ShardOptions{Shards: k, Dynamic: opts})
	}
	defer sx.Close()
	res := shardPassResult{shards: k, build: time.Since(buildStart)}

	toInsert := pts[initial:]
	per := len(toInsert) / writers
	latCh := make(chan []float64, writers)
	writeStart := time.Now()
	var wg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		lo, hi := wi*per, (wi+1)*per
		if wi == writers-1 {
			hi = len(toInsert)
		}
		wg.Add(1)
		go func(wi, lo, hi int) {
			defer wg.Done()
			mrng := xrand.New(cfg.Seed + uint64(wi) + 1)
			lats := make([]float64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				t0 := time.Now()
				var bound int
				if keyed {
					sx.InsertKeyed(uint64(initial+i), toInsert[i])
					bound = initial + i
				} else {
					bound = sx.Insert(toInsert[i])
				}
				lats = append(lats, float64(time.Since(t0)))
				if mrng.Bernoulli(cfg.Deletes) {
					// Deleting a not-yet-assigned id (or key) is a harmless
					// no-op, so an upper bound on the space suffices.
					victim := mrng.Intn(bound + 1)
					if keyed {
						sx.DeleteKeyed(uint64(victim))
					} else {
						sx.Delete(victim)
					}
				}
			}
			latCh <- lats
		}(wi, lo, hi)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		res.writeWall = time.Since(writeStart)
		close(done)
	}()

	// Serve query batches against the churning index until the writers
	// drain (at least one full pass over the churn half so the row is
	// never empty).
	batchOpts := index.BatchOptions{Workers: cfg.Workers}
	half := queries[:len(queries)/2]
	var churnPer []index.QueryStats
	var churnWall time.Duration
	for pass := 0; ; pass++ {
		for lo := 0; lo < len(half); lo += cfg.BatchSize {
			hi := min(lo+cfg.BatchSize, len(half))
			_, perStats, agg := sx.QueryBatch(half[lo:hi], batchOpts)
			churnPer = append(churnPer, perStats...)
			churnWall += agg.Wall
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	res.churnAgg = index.AggregateStats(churnPer, churnWall)
	for wi := 0; wi < writers; wi++ {
		res.insertLat = append(res.insertLat, <-latCh...)
	}

	res.preGC = sx.GCStats()
	compactStart := time.Now()
	sx.Compact()
	res.compact = time.Since(compactStart)
	res.postGC = sx.GCStats()
	res.live = sx.Len()

	post := queries[len(queries)/2:]
	var postPer []index.QueryStats
	var postWall time.Duration
	for lo := 0; lo < len(post); lo += cfg.BatchSize {
		hi := min(lo+cfg.BatchSize, len(post))
		_, perStats, agg := sx.QueryBatch(post[lo:hi], batchOpts)
		postPer = append(postPer, perStats...)
		postWall += agg.Wall
	}
	res.postAgg = index.AggregateStats(postPer, postWall)
	return res
}

// printInsertRowLabel is printInsertRow with a caller-chosen row label.
func printInsertRowLabel(w io.Writer, label string, lat []float64, wall time.Duration) {
	if len(lat) == 0 || wall <= 0 {
		return
	}
	rate := float64(len(lat)) / wall.Seconds()
	fmt.Fprintf(w, "%-18s rate=%9.0f/s p50=%-10v p99=%-10v p99.9=%-10v max=%-10v\n",
		label, rate,
		time.Duration(stats.Quantile(lat, 0.50)),
		time.Duration(stats.Quantile(lat, 0.99)),
		time.Duration(stats.Quantile(lat, 0.999)),
		time.Duration(stats.Quantile(lat, 1.0)))
}

// printShardChurnRow is printChurnRow without the allocation column (the
// multi-writer passes interleave writer allocations with the query loop,
// so a per-query B/q delta would be meaningless).
func printShardChurnRow(w io.Writer, label string, agg index.BatchStats) {
	if agg.Queries == 0 {
		return
	}
	fmt.Fprintf(w, "%-18s qps=%10.0f  p50=%-10v p90=%-10v p99=%-10v max=%-10v cand/q=%.1f probes/q=%.1f\n",
		label, agg.QPS, agg.LatP50, agg.LatP90, agg.LatP99, agg.LatMax,
		float64(agg.Candidates)/float64(agg.Queries),
		float64(agg.Probes)/float64(agg.Queries))
}
