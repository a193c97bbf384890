package dsh_test

import (
	"math"
	"sync"
	"testing"

	"dsh"
)

// TestMetricsChurnSeriesAdvance drives a durable sharded index through
// concurrent keyed inserts, deletes, queries and snapshots, then a
// leveled GC compaction and a sealing Close, and asserts that every
// lifecycle series of the metrics plane advanced between two
// dsh.Metrics() snapshots: query, write, freeze, compaction, GC,
// snapshot-barrier and WAL-fsync. Run it under -race to double as the
// data-race check on the striped recorders.
func TestMetricsChurnSeriesAdvance(t *testing.T) {
	const (
		dim      = 16
		L        = 8
		writers  = 2
		perGoro  = 300
		queriers = 2
	)
	rng := dsh.NewRand(11)
	fam := dsh.Power(dsh.SimHash(dim), 4)
	points := make([][]float64, writers*perGoro)
	for i := range points {
		points[i] = randUnit(rng, dim)
	}

	before := dsh.Metrics()

	sx, err := dsh.NewDurableShardedIndex(t.TempDir(), 11, fam, L, dsh.Float64Codec{},
		dsh.ShardOptions{
			Shards:  2,
			Routing: dsh.RouteHash,
			Dynamic: dsh.DynamicOptions{
				MemtableThreshold: 32,
				Policy:            dsh.CompactLeveled,
			},
		},
		dsh.DurableOptions{Fsync: dsh.FsyncAlways})
	if err != nil {
		t.Fatalf("NewDurableShardedIndex: %v", err)
	}

	// Churn: concurrent keyed upserts with trailing deletes, concurrent
	// point queries, and a snapshot stream that pins and releases global
	// views while the writers run.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				key := uint64(w*perGoro + i)
				sx.InsertKeyed(key, points[key])
				if i%3 == 2 {
					sx.DeleteKeyed(key - 1)
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			qr := sx.NewQuerier()
			for i := 0; i < 50; i++ {
				qr.CollectDistinct(points[(q*37+i*13)%len(points)], 0)
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			snap := sx.Snapshot()
			snap.CollectDistinct(points[i], 4)
			snap.Release()
		}
	}()
	wg.Wait()

	// Leveled Compact is the bottom-level GC merge: with tombstones
	// present it must drop rows and advance the GC series.
	sx.Compact()
	sx.Close()

	after := dsh.Metrics()
	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	mustAdvance := func(names ...string) {
		t.Helper()
		var sum uint64
		for _, n := range names {
			if _, ok := after.Counters[n]; !ok {
				t.Fatalf("series %q is not registered", n)
			}
			sum += delta(n)
		}
		if sum == 0 {
			t.Errorf("series %v did not advance", names)
		}
	}

	mustAdvance("dsh_queries_total")
	mustAdvance("dsh_query_probes_total")
	mustAdvance("dsh_query_hash_evals_total")
	mustAdvance("dsh_upserts_total")
	mustAdvance("dsh_deletes_keyed_total")
	mustAdvance("dsh_freezes_inline_total", "dsh_freezes_async_total")
	mustAdvance("dsh_frozen_rows_total")
	mustAdvance("dsh_compactions_gc_total")
	mustAdvance("dsh_gc_collected_rows_total")
	mustAdvance("dsh_snapshots_total")
	mustAdvance("dsh_snapshot_optimistic_total", "dsh_snapshot_fallback_total")
	mustAdvance("dsh_wal_appends_total")
	mustAdvance("dsh_wal_fsyncs_total")
	mustAdvance("dsh_segment_writes_total")
	mustAdvance("dsh_manifest_commits_total")

	if got, want := after.Gauges["dsh_snapshots_open"], before.Gauges["dsh_snapshots_open"]; got != want {
		t.Errorf("dsh_snapshots_open = %d after releasing every snapshot, want %d", got, want)
	}
	if after.Gauges["dsh_durable_faults"] != before.Gauges["dsh_durable_faults"] {
		t.Errorf("dsh_durable_faults advanced on a healthy store")
	}
	if h := after.Histograms["dsh_query_latency_ns"]; h.Count == before.Histograms["dsh_query_latency_ns"].Count {
		t.Errorf("dsh_query_latency_ns recorded no observations")
	}
	if len(after.Events) == 0 {
		t.Errorf("event trace is empty after churn")
	}
}

func randUnit(rng *dsh.Rand, dim int) []float64 {
	v := make([]float64, dim)
	var norm float64
	for i := range v {
		v[i] = rng.NormFloat64()
		norm += v[i] * v[i]
	}
	n := math.Sqrt(norm)
	for i := range v {
		v[i] /= n
	}
	return v
}
