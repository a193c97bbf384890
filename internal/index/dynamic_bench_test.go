package index

import (
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// Benchmarks for the dynamic segmented index. Run with
//
//	go test -bench 'Dynamic' -benchmem ./internal/index/
//
// DynamicQueryAfterCompact should report 0 allocs/op: the compacted
// steady state answers from one flat segment through reused querier
// scratch, exactly like the static index.

func BenchmarkDynamicInsert(b *testing.B) {
	rng := xrand.New(91)
	const d, L = 24, 24
	pts := workload.SpherePoints(rng, 4096, d)
	dx := newOneShard[[]float64](xrand.New(92), dynamicFamily(), L, nil,
		DynamicOptions{MemtableThreshold: 1024})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dx.Insert(pts[i%len(pts)])
	}
}

func BenchmarkDynamicQueryAfterCompact(b *testing.B) {
	rng := xrand.New(93)
	const d, n, L = 24, 20000, 24
	pts := workload.SpherePoints(rng, n, d)
	dx := newOneShard(xrand.New(94), dynamicFamily(), L, pts[:n/2],
		DynamicOptions{MemtableThreshold: 2048})
	for _, p := range pts[n/2:] {
		dx.Insert(p)
	}
	for id := 0; id < n; id += 10 {
		dx.Delete(id)
	}
	dx.Compact()
	q := workload.SpherePoints(rng, 1, d)[0]
	qr := dx.NewQuerier()
	qr.CollectDistinct(q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr.CollectDistinct(q, 0)
	}
}

// BenchmarkDynamicQueryPreCompact measures the same query against the
// layered state (several segments plus a live memtable), quantifying what
// compaction buys.
func BenchmarkDynamicQueryPreCompact(b *testing.B) {
	rng := xrand.New(95)
	const d, n, L = 24, 20000, 24
	pts := workload.SpherePoints(rng, n, d)
	dx := newOneShard(xrand.New(96), dynamicFamily(), L, pts[:n/2],
		DynamicOptions{MemtableThreshold: 2048})
	for _, p := range pts[n/2:] {
		dx.Insert(p)
	}
	for id := 0; id < n; id += 10 {
		dx.Delete(id)
	}
	q := workload.SpherePoints(rng, 1, d)[0]
	qr := dx.NewQuerier()
	qr.CollectDistinct(q, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qr.CollectDistinct(q, 0)
	}
}
