package sphere

import (
	"fmt"
	"testing"

	"dsh/internal/core"
	"dsh/internal/vec"
	"dsh/internal/xrand"
)

// Hash-evaluation microbenchmarks behind the "make hashing as fast as
// probing" work: dense vs fast cross-polytope (O(d^2) vs O(d log d)
// rotations) and scalar vs batched simhash (per-query dot products vs a
// cache-blocked matrix product). All paths must report 0 allocs/op at
// steady state; CI greps -benchmem output for regressions.

var benchDims = []int{64, 256, 1024}

const benchBatch = 256

func benchPoints(d, n int) []Point {
	rng := xrand.New(uint64(d)*31 + uint64(n))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = vec.RandomUnit(rng, d)
	}
	return pts
}

func benchHashScalar(b *testing.B, fam core.Family[Point]) {
	rng := xrand.New(1)
	h := fam.Sample(rng).H
	pts := benchPoints(dimOf(fam), benchBatch)
	h.Hash(pts[0]) // warm any pooled scratch before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(pts[i%len(pts)])
	}
}

func benchHashBatch(b *testing.B, fam core.Family[Point]) {
	rng := xrand.New(1)
	h := fam.Sample(rng).H.(core.BatchHasher[Point])
	pts := benchPoints(dimOf(fam), benchBatch)
	out := make([]uint64, len(pts))
	h.HashBatch(pts, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashBatch(pts, out)
	}
	b.StopTimer()
	// Report per-point time so rows compare directly with the scalar
	// benchmarks' ns/op.
	perPoint := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(pts))
	b.ReportMetric(perPoint, "ns/point")
}

// dimOf recovers the input dimension from the families benchmarked here.
func dimOf(fam core.Family[Point]) int {
	switch f := fam.(type) {
	case crossPolytope:
		return f.d
	case fastCrossPolytope:
		return f.d
	case simHashPower:
		return f.d
	}
	var d int
	fmt.Sscanf(fam.Name(), "%*[a-z](d=%d", &d)
	return d
}

func BenchmarkHashEvalDenseCP(b *testing.B) {
	for _, d := range benchDims {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchHashScalar(b, CrossPolytope(d))
		})
	}
}

func BenchmarkHashEvalFastCP(b *testing.B) {
	for _, d := range benchDims {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchHashScalar(b, FastCrossPolytope(d))
		})
	}
}

func BenchmarkHashEvalFastCPBatch(b *testing.B) {
	for _, d := range benchDims {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchHashBatch(b, FastCrossPolytope(d))
		})
	}
}

func BenchmarkHashEvalSimHashScalar(b *testing.B) {
	for _, d := range benchDims {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchHashScalar(b, core.Power[Point](SimHash(d), 8))
		})
	}
}

func BenchmarkHashEvalSimHashBatched(b *testing.B) {
	for _, d := range benchDims {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			benchHashBatch(b, core.Power[Point](SimHash(d), 8))
		})
	}
}
