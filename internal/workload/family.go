package workload

import (
	"fmt"
	"math"

	"dsh/internal/core"
	"dsh/internal/sphere"
)

// ServingFamily resolves a benchmark/server -family flag into a hash
// family plus a repetition count, shared by cmd/dshbench and cmd/dshserve
// so the two tools accept identical names and build identical indexes:
//
//	fastcp   FFT-accelerated cross-polytope (O(d log d) pseudo-rotation)
//	simhash  Power(SimHash(d), 6), hashed by its row-packed core.BatchHasher
//
// fastcp derives L from the asymptotic CPF at alpha = 0.5 (L = ceil(1/f),
// the standard repetition count for constant success probability);
// simhash keeps the historical L = 32 so it reproduces the old
// churn-mode default exactly. Dense cross-polytope (sphere.CrossPolytope)
// is not served: fastcp has the same CPF and hashes 2-37x faster, so the
// dense family stays in the paper experiments only.
func ServingFamily(name string, dim int) (core.Family[[]float64], int, error) {
	switch name {
	case "fastcp":
		fam := sphere.FastCrossPolytope(dim)
		return fam, repetitionsFor(fam.CPF().Eval(0.5)), nil
	case "simhash":
		return core.Power[[]float64](sphere.SimHash(dim), 6), 32, nil
	}
	return nil, 0, fmt.Errorf("unknown family %q (want fastcp or simhash)", name)
}

// repetitionsFor is L = ceil(1/f), mirroring index.RepetitionsForCPF
// without pulling the index package into workload's dependency set.
func repetitionsFor(f float64) int {
	if f >= 1 {
		return 1
	}
	return int(math.Ceil(1 / f))
}
