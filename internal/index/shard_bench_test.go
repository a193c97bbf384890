package index

import (
	"sync/atomic"
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// Benchmarks for the sharded multi-writer core. Run with
//
//	go test -bench 'Sharded' -benchmem ./internal/index/
//
// ShardedInsertParallel is the headline: RunParallel drives inserts from
// every P simultaneously, so the 1-shard variant measures the single
// structural lock under contention and the 8-shard variant what sharding
// buys. ShardedQueryAfterCompact should report 0 allocs/op like every
// other backend.

func benchmarkShardedInsertParallel(b *testing.B, shards int) {
	rng := xrand.New(91)
	const d, L = 24, 24
	pts := workload.SpherePoints(rng, 4096, d)
	sx := NewSharded[[]float64](xrand.New(92), dynamicFamily(), L, nil,
		ShardOptions{Shards: shards, Dynamic: DynamicOptions{MemtableThreshold: 1024}})
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % len(pts)
			sx.Insert(pts[i])
		}
	})
}

func BenchmarkShardedInsertParallel1(b *testing.B) { benchmarkShardedInsertParallel(b, 1) }
func BenchmarkShardedInsertParallel8(b *testing.B) { benchmarkShardedInsertParallel(b, 8) }

func BenchmarkShardedQueryAfterCompact(b *testing.B) {
	rng := xrand.New(93)
	const d, n, L = 24, 20000, 24
	pts := workload.SpherePoints(rng, n, d)
	sx := NewSharded(xrand.New(94), dynamicFamily(), L, pts[:n/2],
		ShardOptions{Shards: 4, Dynamic: DynamicOptions{MemtableThreshold: 2048}})
	for _, p := range pts[n/2:] {
		sx.Insert(p)
	}
	for id := 0; id < n; id += 10 {
		sx.Delete(id)
	}
	sx.Compact()
	q := workload.SpherePoints(rng, 1, d)[0]
	qr := sx.NewQuerier()
	qr.CollectDistinct(q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr.CollectDistinct(q, 0)
	}
}

// BenchmarkSnapshotQuery measures the lock-free snapshot read path over
// the same corpus; it should match the static index's flat-table cost.
func BenchmarkSnapshotQuery(b *testing.B) {
	rng := xrand.New(95)
	const d, n, L = 24, 20000, 24
	pts := workload.SpherePoints(rng, n, d)
	dx := newOneShard(xrand.New(96), dynamicFamily(), L, pts, DynamicOptions{})
	dx.Compact()
	snap := dx.Snapshot()
	q := workload.SpherePoints(rng, 1, d)[0]
	qr := snap.NewQuerier()
	qr.CollectDistinct(q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr.CollectDistinct(q, 0)
	}
}
