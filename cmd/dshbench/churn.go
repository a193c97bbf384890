package main

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dsh"
	"dsh/internal/index"
	"dsh/internal/stats"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// churnConfig parameterizes the dynamic-index churn mode: a one-shard
// ShardedIndex over random unit vectors absorbing interleaved inserts,
// deletes and query batches, then compacted, so the report shows serving
// QPS and latency percentiles before and after compaction, plus insert
// latency percentiles that expose the freeze write stall.
type churnConfig struct {
	Points    int
	Queries   int
	BatchSize int
	Workers   int
	Dim       int
	Seed      uint64
	// Policy is the background merge policy: "all" (monolithic,
	// id-preserving) or "leveled" (tombstone GC with renumbering).
	Policy string
	// Shards is the number of ShardedIndex shards; values > 1 (or
	// Writers > 1) switch the mode to the multi-writer benchmark, which
	// also runs a single-shard baseline for comparison.
	Shards int
	// Writers is the number of concurrent insert/delete goroutines in the
	// multi-writer benchmark.
	Writers int
	// Deletes is the per-insert probability that a delete of a random
	// earlier point follows the insert.
	Deletes float64
	// Routing selects the write path: "rr" (round-robin Insert with dense
	// ids) or "hash" (keyed upserts through InsertKeyed, hash-routed to
	// shards).
	Routing string
	// Family selects the serving hash family (see
	// workload.ServingFamily); empty means the historical default,
	// SimHash^6 at L = 32.
	Family string
}

// dynamicOptions translates the string flags into index options.
func (cfg churnConfig) dynamicOptions() (index.DynamicOptions, error) {
	// The threshold is kept small relative to the insert count so freezes
	// land well inside the measured percentiles: the inline write stall
	// strikes once per MemtableThreshold inserts, so with threshold ~1% of
	// the stream the p99/p99.9 insert columns expose it directly.
	opts := index.DynamicOptions{
		MemtableThreshold:    maxInt(cfg.Points/64, 128),
		BackgroundCompaction: true,
	}
	switch cfg.Policy {
	case "", "all":
		opts.Policy = index.CompactAll
	case "leveled":
		opts.Policy = index.CompactLeveled
	default:
		return opts, fmt.Errorf("unknown -policy %q (want all or leveled)", cfg.Policy)
	}
	return opts, nil
}

func runChurn(w io.Writer, cfg churnConfig) error {
	opts, err := cfg.dynamicOptions()
	if err != nil {
		return err
	}
	switch cfg.Routing {
	case "", "rr", "hash":
	default:
		return fmt.Errorf("unknown -routing %q (want rr or hash)", cfg.Routing)
	}
	if cfg.Shards > 1 || cfg.Writers > 1 {
		if err := runShardedChurn(w, cfg, opts); err != nil {
			return err
		}
		printMetricsTable(w)
		return nil
	}
	keyed := cfg.Routing == "hash"
	rng := xrand.New(cfg.Seed)
	fam, L, err := workload.ServingFamily(orDefault(cfg.Family, "simhash"), cfg.Dim)
	if err != nil {
		return err
	}

	initial := cfg.Points / 2
	pts := workload.SpherePoints(rng, cfg.Points, cfg.Dim)
	queries := workload.SpherePoints(rng, cfg.Queries, cfg.Dim)

	// In keyed mode every point enters through InsertKeyed under its stream
	// position as key, so the delete side can churn through DeleteKeyed and
	// leveled GC gets a key table to remap.
	buildStart := time.Now()
	var dx *index.ShardedIndex[[]float64]
	if keyed {
		dx = index.NewSharded(rng, fam, L, nil,
			index.ShardOptions{Shards: 1, Routing: index.RouteHash, Dynamic: opts})
		for i, p := range pts[:initial] {
			dx.InsertKeyed(uint64(i), p)
		}
	} else {
		dx = index.NewSharded(rng, fam, L, pts[:initial], index.ShardOptions{Shards: 1, Dynamic: opts})
	}
	defer dx.Close()
	buildTime := time.Since(buildStart)
	fmt.Fprintf(w, "churn: family=%s n0=%d inserts=%d queries=%d batch=%d workers=%d dim=%d L=%d policy=%s deletes=%.2f routing=%s\n",
		fam.Name(), initial, cfg.Points-initial, cfg.Queries, cfg.BatchSize, cfg.Workers, cfg.Dim, L,
		orDefault(cfg.Policy, "all"), cfg.Deletes, orDefault(cfg.Routing, "rr"))
	fmt.Fprintf(w, "build: %v\n", buildTime)

	// Query batches run through the RunBatch worker pool with one pooled
	// Querier per in-flight query — the serving loop, with no
	// per-query result copying — so the B/q column measures the query
	// path itself. runPhase scopes the allocation delta to the batches.
	batchOpts := index.BatchOptions{Workers: cfg.Workers}
	pool := &dynQuerierPool{dx: dx}
	runPhase := func(qs [][]float64, between func(batch int)) (index.BatchStats, uint64) {
		per := make([]index.QueryStats, len(qs))
		var wall time.Duration
		var allocs uint64
		for lo, batch := 0, 0; lo < len(qs); lo, batch = lo+cfg.BatchSize, batch+1 {
			hi := lo + cfg.BatchSize
			if hi > len(qs) {
				hi = len(qs)
			}
			if between != nil {
				between(batch)
			}
			chunk := qs[lo:hi]
			chunkPer := per[lo:hi]
			before := heapAllocated()
			wall += index.RunBatch(len(chunk), batchOpts, func(i int, _ *xrand.Rand) {
				qr := pool.get()
				start := time.Now()
				_, st := qr.CollectDistinct(chunk[i], 0)
				st.Latency = time.Since(start)
				chunkPer[i] = st
				pool.put(qr)
			})
			allocs += heapAllocated() - before
		}
		return index.AggregateStats(per, wall), allocs
	}

	// Churn phase: before each batch, insert a slice of the remaining
	// points and delete a matching fraction of live ids, so queries run
	// against a layered index (frozen segments + live memtable +
	// tombstones). Half the query budget is spent here, half after
	// compaction. Every Insert is timed individually: the p99/max columns
	// expose the inline freeze write stall.
	half := cfg.Queries / 2
	batches := (half + cfg.BatchSize - 1) / cfg.BatchSize
	mrng := xrand.New(cfg.Seed + 1)
	nextInsert := initial
	insertLat := make([]float64, 0, cfg.Points-initial)
	var insertWall time.Duration
	churnAgg, churnAllocs := runPhase(queries[:half], func(batch int) {
		target := initial + (cfg.Points-initial)*(batch+1)/batches
		for ; nextInsert < target; nextInsert++ {
			start := time.Now()
			if keyed {
				dx.InsertKeyed(uint64(nextInsert), pts[nextInsert])
			} else {
				dx.Insert(pts[nextInsert])
			}
			lat := time.Since(start)
			insertWall += lat
			insertLat = append(insertLat, float64(lat))
			if mrng.Bernoulli(cfg.Deletes) {
				victim := mrng.Intn(nextInsert + 1)
				if keyed {
					dx.DeleteKeyed(uint64(victim))
				} else {
					// A renumbering GC may have shrunk the id space below
					// the stream position; out-of-range ids are no-ops.
					dx.Delete(victim)
				}
			}
		}
	})
	fmt.Fprintf(w, "state: live=%d segments=%d memtable=%d\n",
		dx.Len(), dx.Segments(), dx.MemtableLen())
	printGCRow(w, "pre-compact gc", dx.GCStats())
	printInsertRow(w, insertLat, insertWall)
	printChurnRow(w, "pre-compact", churnAgg, churnAllocs)

	compactStart := time.Now()
	dx.Compact()
	fmt.Fprintf(w, "compact: %v (live=%d segments=%d memtable=%d)\n",
		time.Since(compactStart), dx.Len(), dx.Segments(), dx.MemtableLen())
	printGCRow(w, "post-compact gc", dx.GCStats())

	evalsBefore := dsh.Metrics().Counters["dsh_query_hash_evals_total"]
	steadyAgg, steadyAllocs := runPhase(queries[half:], nil)
	steadyEvals := dsh.Metrics().Counters["dsh_query_hash_evals_total"] - evalsBefore
	printChurnRow(w, "post-compact", steadyAgg, steadyAllocs)
	if churnAgg.QPS > 0 && steadyAgg.QPS > 0 {
		fmt.Fprintf(w, "compaction speedup: %.2fx\n", steadyAgg.QPS/churnAgg.QPS)
	}
	// Hash-vs-probe decomposition of the post-compact scalar serving path:
	// the serving loop above hashes inline per query, so its mean latency
	// splits into the dedicated hashing pass's per-query cost and the
	// probing/candidate remainder.
	hashPerQ := hashCostPerQuery(xrand.New(cfg.Seed+2), fam, L, queries[half:])
	printCostSplit(w, hashPerQ, steadyAgg.LatMean, steadyAgg, steadyEvals)
	printMetricsTable(w)
	return nil
}

// printMetricsTable renders the run's cumulative lifecycle counters from
// the process-wide metrics plane — the same series /metrics exposes, so
// the table doubles as a sanity check that the instrumentation observed
// the churn the benchmark generated (freezes, compactions, GC folds,
// snapshots, WAL traffic).
func printMetricsTable(w io.Writer) {
	m := dsh.Metrics()
	c, g, h := m.Counters, m.Gauges, m.Histograms
	p99 := func(name string) time.Duration {
		return time.Duration(h[name].Quantile(0.99))
	}
	fmt.Fprintf(w, "-- metrics plane --\n")
	fmt.Fprintf(w, "%-12s queries=%d probes=%d candidates=%d distinct=%d hash-evals=%d p99=%v\n",
		"m/query", c["dsh_queries_total"], c["dsh_query_probes_total"],
		c["dsh_query_candidates_total"], c["dsh_query_distinct_total"],
		c["dsh_query_hash_evals_total"], p99("dsh_query_latency_ns"))
	fmt.Fprintf(w, "%-12s inserts=%d upserts=%d deletes=%d deletes-keyed=%d\n",
		"m/write", c["dsh_inserts_total"], c["dsh_upserts_total"],
		c["dsh_deletes_total"], c["dsh_deletes_keyed_total"])
	fmt.Fprintf(w, "%-12s inline=%d snapshot=%d rows=%d build-p99=%v\n",
		"m/freeze", c["dsh_freezes_inline_total"], c["dsh_freezes_async_total"],
		c["dsh_frozen_rows_total"], p99("dsh_freeze_build_ns"))
	fmt.Fprintf(w, "%-12s all=%d upper=%d gc=%d rows=%d p99=%v\n",
		"m/compact", c["dsh_compactions_all_total"],
		c["dsh_compactions_upper_total"], c["dsh_compactions_gc_total"],
		c["dsh_compaction_rows_total"], p99("dsh_compaction_ns"))
	fmt.Fprintf(w, "%-12s collected=%d reclaimed=%dB\n",
		"m/gc", c["dsh_gc_collected_rows_total"], c["dsh_gc_reclaimed_bitmap_bytes_total"])
	fmt.Fprintf(w, "%-12s taken=%d open=%d optimistic=%d retries=%d fallback=%d\n",
		"m/snapshot", c["dsh_snapshots_total"], g["dsh_snapshots_open"],
		c["dsh_snapshot_optimistic_total"], c["dsh_snapshot_retries_total"],
		c["dsh_snapshot_fallback_total"])
	fmt.Fprintf(w, "%-12s appends=%d bytes=%d fsyncs=%d rotations=%d seg-writes=%d manifests=%d faults=%d\n",
		"m/durable", c["dsh_wal_appends_total"], c["dsh_wal_append_bytes_total"],
		c["dsh_wal_fsyncs_total"], c["dsh_wal_rotations_total"],
		c["dsh_segment_writes_total"], c["dsh_manifest_commits_total"],
		g["dsh_durable_faults"])
}

// dynQuerierPool pools Queriers for the churn serving loop.
type dynQuerierPool struct {
	dx   *index.ShardedIndex[[]float64]
	pool sync.Pool
}

func (p *dynQuerierPool) get() *index.Querier[[]float64] {
	if qr, ok := p.pool.Get().(*index.Querier[[]float64]); ok {
		return qr
	}
	return p.dx.NewQuerier()
}

func (p *dynQuerierPool) put(qr *index.Querier[[]float64]) { p.pool.Put(qr) }

func printInsertRow(w io.Writer, lat []float64, wall time.Duration) {
	if len(lat) == 0 {
		return
	}
	rate := float64(len(lat)) / wall.Seconds()
	fmt.Fprintf(w, "%-12s rate=%9.0f/s p50=%-10v p99=%-10v p99.9=%-10v max=%-10v\n",
		"inserts", rate,
		time.Duration(stats.Quantile(lat, 0.50)),
		time.Duration(stats.Quantile(lat, 0.99)),
		time.Duration(stats.Quantile(lat, 0.999)),
		time.Duration(stats.Quantile(lat, 1.0)))
}

func printChurnRow(w io.Writer, label string, agg index.BatchStats, allocs uint64) {
	fmt.Fprintf(w, "%-12s qps=%10.0f  p50=%-10v p90=%-10v p99=%-10v max=%-10v cand/q=%.1f probes/q=%.1f B/q=%.0f\n",
		label, agg.QPS, agg.LatP50, agg.LatP90, agg.LatP99, agg.LatMax,
		float64(agg.Candidates)/float64(agg.Queries),
		float64(agg.Probes)/float64(agg.Queries),
		float64(allocs)/float64(agg.Queries))
}

// printGCRow reports the garbage profile of the index: live versus dead
// (tombstoned, not yet collected) rows, the tombstone-bitmap footprint,
// and the cumulative rows dropped / bitmap bytes reclaimed by renumbering
// GC merges.
func printGCRow(w io.Writer, label string, st index.GCStats) {
	fmt.Fprintf(w, "%-15s live=%d dead=%d bitmap=%dB collected=%d reclaimed=%dB\n",
		label, st.LiveRows, st.DeadRows, st.BitmapBytes, st.CollectedRows, st.ReclaimedBitmapBytes)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
