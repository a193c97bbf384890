// Sharded: multi-writer serving with snapshot-isolated scans. A
// one-shard index serializes every mutation on one RWMutex; under several
// concurrent writer threads that lock becomes the bottleneck.
// dsh.NewShardedDynamicIndex with Shards > 1 partitions points by id
// across K independent shards — each with its own memtable, segments and
// compactor — so writers on different shards never contend, while queries
// probe every shard with the same per-repetition key and return exactly
// the candidate sets a single shard would.
//
// Snapshot() pins a point-in-time view of every shard — a single instant
// across all of them, enforced by an epoch-barrier protocol: the
// analytics scan below iterates a frozen id set and re-runs the same
// queries with identical results while the writers keep mutating the
// live index.
//
// The second half shows the keyed serving mode: RouteHash routes every
// external key to a fixed shard so InsertKeyed is an atomic upsert, and
// the leveled compaction policy garbage-collects the dead versions that
// upsert churn leaves behind (watch GCStats before and after Compact).
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"sync"
	"time"

	"dsh"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

func main() {
	rng := xrand.New(7)
	const (
		d       = 32
		n       = 6000
		shards  = 4
		writers = 4
	)
	points := workload.SpherePoints(rng, n, d)
	initial := n / 2

	// SimHash^6 keeps collision sets selective at this corpus size.
	fam := dsh.Power(dsh.SimHash(d), 6)
	const L = 32
	sx := dsh.NewShardedDynamicIndex(rng, fam, L, points[:initial], dsh.ShardOptions{
		Shards: shards,
		Dynamic: dsh.DynamicOptions{
			MemtableThreshold:    256,
			BackgroundCompaction: true,
		},
	})
	defer sx.Close()
	fmt.Printf("sharded index: %d shards x L=%d repetitions, %d initial points\n",
		sx.Shards(), sx.L(), sx.Len())

	// A snapshot pins the current live set before the writers start: the
	// scan results below must not move, no matter what lands meanwhile.
	snap := sx.Snapshot()
	query := points[0]
	pinnedIDs := snap.AppendLiveIDs(nil)
	pinnedRes := snap.CollectDistinct(query, 0)
	fmt.Printf("snapshot: pinned %d live ids, query sees %d candidates\n",
		len(pinnedIDs), len(pinnedRes))

	// Four writers stream in the second half concurrently, each deleting
	// a quarter of what it has seen; different shards, no lock contention.
	start := time.Now()
	var wg sync.WaitGroup
	per := (n - initial) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mrng := xrand.New(uint64(100 + w))
			for i := 0; i < per; i++ {
				id := sx.Insert(points[initial+w*per+i])
				if mrng.Bernoulli(0.25) {
					sx.Delete(mrng.Intn(id + 1))
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("writers: %d concurrent goroutines inserted %d points in %v (live=%d)\n",
		writers, n-initial, time.Since(start).Round(time.Millisecond), sx.Len())

	// The snapshot still answers from the pinned state...
	afterIDs := snap.AppendLiveIDs(nil)
	afterRes := snap.CollectDistinct(query, 0)
	fmt.Printf("snapshot after churn: %d live ids (unchanged=%v), %d candidates (unchanged=%v)\n",
		len(afterIDs), equalInts(afterIDs, pinnedIDs), len(afterRes), equalInts(afterRes, pinnedRes))
	snap.Release()

	// ...while the live index serves the new reality. The range-reporting
	// veneer binds to the sharded backend through the same Source handle
	// every backend implements.
	const minSim = 0.55
	rr := dsh.NewRangeReporterOver[[]float64](sx, func(q, x []float64) bool {
		return vec.Dot(q, x) >= minSim
	})
	ids, stats := rr.Query(query)
	fmt.Printf("live range query: %d reported >= %.2f similarity (%d probes across all shards)\n",
		len(ids), minSim, stats.Probes)

	sx.Compact()
	_, stats = rr.Query(query)
	fmt.Printf("after Compact: same query, %d probes (L x %d shards)\n", stats.Probes, sx.Shards())

	// --- Keyed serving: hash routing + leveled GC -----------------------
	// A catalog of `docs` documents, each re-published (upserted) several
	// times under its stable external key. RouteHash sends a key to shard
	// mix(key) mod K, so replacing a document is atomic under one shard
	// lock; CompactLeveled garbage-collects the superseded versions.
	const docs = 1500
	krng := xrand.New(8)
	kx := dsh.NewShardedDynamicIndex(krng, fam, L, nil, dsh.ShardOptions{
		Shards:  shards,
		Routing: dsh.RouteHash,
		Dynamic: dsh.DynamicOptions{
			MemtableThreshold: 256,
			Policy:            dsh.CompactLeveled,
		},
	})
	defer kx.Close()
	versions := workload.SpherePoints(krng, 4*docs, d)
	for round := 0; round < 4; round++ {
		for doc := 0; doc < docs; doc++ {
			kx.InsertKeyed(uint64(doc), versions[round*docs+doc])
		}
	}
	st := kx.GCStats()
	fmt.Printf("keyed: %d docs x 4 upserts -> live=%d dead=%d bitmap=%dB\n",
		docs, st.LiveRows, st.DeadRows, st.BitmapBytes)

	kx.Compact()
	st = kx.GCStats()
	fmt.Printf("after leveled GC: live=%d dead=%d bitmap=%dB (collected=%d rows, reclaimed=%dB)\n",
		st.LiveRows, st.DeadRows, st.BitmapBytes, st.CollectedRows, st.ReclaimedBitmapBytes)

	// Every key resolves to exactly its latest version, GC or not.
	if id, ok := kx.LookupKey(42); ok {
		fmt.Printf("doc 42 currently lives at id %d; latest-version match=%v\n",
			id, equalFloats(kx.Point(id), versions[3*docs+42]))
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
