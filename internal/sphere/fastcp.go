package sphere

import (
	"fmt"
	"math"

	"dsh/internal/core"
	"dsh/internal/fft"
	"dsh/internal/xrand"
)

// fastRounds is the number of (random-sign-flip x Walsh-Hadamard) rounds in
// the structured pseudo-rotation. Three rounds is the standard choice
// (Kennedy & Ward, "Fast Cross-Polytope LSH"; also FALCONN's default):
// empirically the collision probabilities are statistically
// indistinguishable from a dense Gaussian rotation, while one round alone
// leaks the input's coordinate structure.
const fastRounds = 3

// argmaxAbs returns the index of the entry of v with the largest absolute
// value, and whether that entry is negative. Ties on equal |v| break to
// the lowest index (strict > comparison), the deterministic argmax
// contract shared by the dense and fast cross-polytope hashers.
func argmaxAbs(v []float64) (best int, neg bool) {
	bestAbs := math.Inf(-1)
	for i, x := range v {
		a := math.Abs(x)
		if a > bestAbs {
			bestAbs = a
			best = i
			neg = x < 0
		}
	}
	return best, neg
}

// cpKey encodes a cross-polytope vertex (coordinate index plus sign) as a
// hash key: index in the high bits, sign in bit 0.
func cpKey(best int, neg bool) uint64 {
	h := uint64(best) << 1
	if neg {
		h |= 1
	}
	return h
}

// fastCrossPolytopeHasher maps a point to the closest signed basis vector
// of its image under a structured pseudo-rotation: fastRounds rounds of
// (random sign flips x unnormalized FWHT) over the input zero-padded to
// the next power of two. Each round costs O(n log n) against the dense
// rotation's O(d^2), with collision probabilities provably comparable
// (Kennedy & Ward). Hash draws its work buffer from the fft scratch pool,
// so steady-state hashing performs no heap allocations.
type fastCrossPolytopeHasher struct {
	d     int         // input dimension
	n     int         // padded power-of-two dimension; argmax runs over all n coordinates
	signs [][]float64 // fastRounds diagonals of random ±1 entries, length n
}

// pseudoRotate applies the sign-flip x FWHT rounds to buf in place.
// The transforms are unnormalized: every round scales uniformly by
// sqrt(n) beyond orthonormal, which changes neither the argmax nor the
// sign, so the normalization is skipped on the hot path.
func (c *fastCrossPolytopeHasher) pseudoRotate(buf []float64) {
	for _, s := range c.signs {
		for i, sv := range s {
			buf[i] *= sv
		}
		fft.FWHT(buf)
	}
}

func (c *fastCrossPolytopeHasher) Hash(p Point) uint64 {
	if len(p) != c.d {
		panic("sphere: dimension mismatch")
	}
	s := fft.AcquirePadded(p)
	buf := s.Data()
	c.pseudoRotate(buf)
	best, neg := argmaxAbs(buf)
	s.Release()
	return cpKey(best, neg)
}

// HashBatch implements core.BatchHasher: it evaluates the pseudo-rotation
// over a block of points, reusing one pooled scratch buffer across the
// whole block. The per-point operations are exactly Hash's, so the keys
// are bit-identical to the scalar path.
func (c *fastCrossPolytopeHasher) HashBatch(points []Point, out []uint64) {
	if len(out) < len(points) {
		panic("sphere: HashBatch output shorter than input")
	}
	s := fft.Acquire(c.n)
	buf := s.Data()
	for j, p := range points {
		if len(p) != c.d {
			panic("sphere: dimension mismatch")
		}
		copy(buf, p)
		for i := c.d; i < c.n; i++ {
			buf[i] = 0
		}
		c.pseudoRotate(buf)
		best, neg := argmaxAbs(buf)
		out[j] = cpKey(best, neg)
	}
	s.Release()
}

type fastCrossPolytope struct {
	d      int
	negate bool
}

// FastCrossPolytope returns the FFT-accelerated cross-polytope family: the
// same CP+ construction as CrossPolytope, with the dense d x d Gaussian
// rotation replaced by fastRounds rounds of (random sign flips x
// Walsh-Hadamard transform) over the input zero-padded to n =
// NextPowerOfTwo(d). Hashing costs O(d log d) instead of O(d^2); Kennedy &
// Ward show the collision probabilities match the dense rotation up to
// lower-order terms (the differential test in fastcp_test.go pins them to
// within Monte-Carlo error). The hasher implements core.BatchHasher, so
// the index batch engine can stream query blocks through one repetition's
// draws.
//
// For non-power-of-two d the family behaves like a cross-polytope in the
// padded dimension n (the argmax ranges over all n rotated coordinates),
// so its CPF is the Theorem 2.1 asymptotic at n, not d.
func FastCrossPolytope(d int) core.Family[Point] {
	if d <= 0 {
		panic("sphere: dimension must be positive")
	}
	return fastCrossPolytope{d: d}
}

// FastAntiCrossPolytope returns the query-negated fast family with
// (asymptotically) decreasing CPF f(alpha) = fFastCP(-alpha), the
// structured-rotation analogue of AntiCrossPolytope. Its query hasher
// supports the HashNeg pre-negated fast path, so the index layer negates
// a query once per query rather than once per repetition.
func FastAntiCrossPolytope(d int) core.Family[Point] {
	if d <= 0 {
		panic("sphere: dimension must be positive")
	}
	return fastCrossPolytope{d: d, negate: true}
}

func (c fastCrossPolytope) Name() string {
	if c.negate {
		return fmt.Sprintf("fastanticrosspolytope(d=%d)", c.d)
	}
	return fmt.Sprintf("fastcrosspolytope(d=%d)", c.d)
}

func (c fastCrossPolytope) Sample(rng *xrand.Rand) core.Pair[Point] {
	n := fft.NextPowerOfTwo(c.d)
	signs := make([][]float64, fastRounds)
	for r := range signs {
		sv := make([]float64, n)
		for i := range sv {
			if rng.Uint64()&1 == 0 {
				sv[i] = 1
			} else {
				sv[i] = -1
			}
		}
		signs[r] = sv
	}
	h := &fastCrossPolytopeHasher{d: c.d, n: n, signs: signs}
	if c.negate {
		return core.Pair[Point]{H: h, G: negatedHasher{inner: h}}
	}
	return core.Pair[Point]{H: h, G: h}
}

func (c fastCrossPolytope) CPF() core.CPF {
	n := fft.NextPowerOfTwo(c.d)
	neg := c.negate
	return core.CPF{Domain: core.DomainInnerProduct, Eval: func(alpha float64) float64 {
		if neg {
			alpha = -alpha
		}
		return CrossPolytopeAsymptoticCPF(n, alpha)
	}}
}
