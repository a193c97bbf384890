// Package sphere implements the paper's distance-sensitive hash families
// for the unit sphere S^{d-1}, with CPFs expressed as functions of the
// inner product alpha = <x, y> in [-1, 1]:
//
//   - SimHash (Charikar): the classical hyperplane LSH with exact CPF
//     1 - arccos(alpha)/pi; the canonical "LSHable angular similarity".
//   - Cross-polytope LSH CP+ and its anti-LSH variant CP- obtained by
//     negating the query point (Section 2.1).
//   - Filter-based families D+ and D- (Section 2.2) built from sequences
//     of spherical caps, with exact CPFs from bivariate normal orthant
//     probabilities and the Theorem 1.2 asymptotics.
//   - The unimodal annulus family D of Section 6.2 combining D+ and D-.
//   - Valiant-embedding polynomial CPF families (Theorem 5.1), both the
//     exact tensor-power version and a TensorSketch approximation.
package sphere

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"dsh/internal/core"
	"dsh/internal/vec"
	"dsh/internal/xrand"
)

// Point is the point type for unit-sphere families.
type Point = []float64

// SimHashCPF is the exact collision probability of SimHash at inner
// product alpha: 1 - arccos(alpha)/pi.
func SimHashCPF(alpha float64) float64 {
	if alpha > 1 {
		alpha = 1
	}
	if alpha < -1 {
		alpha = -1
	}
	return 1 - math.Acos(alpha)/math.Pi
}

type gaussSignHasher struct{ g []float64 }

func (h gaussSignHasher) Hash(p Point) uint64 { return signBit(vec.Dot(h.g, p)) }

// signBit is a SimHash key: 1 for a non-negative dot product, else 0.
func signBit(dot float64) uint64 {
	if dot >= 0 {
		return 1
	}
	return 0
}

type simHash struct{ d int }

// SimHash returns Charikar's hyperplane LSH for dimension d as a symmetric
// DSH family with exact CPF 1 - arccos(alpha)/pi.
func SimHash(d int) core.Family[Point] {
	if d <= 0 {
		panic("sphere: dimension must be positive")
	}
	return simHash{d: d}
}

func (s simHash) Name() string { return fmt.Sprintf("simhash(d=%d)", s.d) }

func (s simHash) Sample(rng *xrand.Rand) core.Pair[Point] {
	h := gaussSignHasher{g: vec.Gaussian(rng, s.d)}
	return core.Pair[Point]{H: h, G: h}
}

func (s simHash) CPF() core.CPF {
	return core.CPF{Domain: core.DomainInnerProduct, Eval: SimHashCPF}
}

// Power is SimHash's fused k-fold concatenation, which core.Power returns
// for k >= 2: SimHash(d)^k with one row-packed hasher per draw.
func (s simHash) Power(k int) core.Family[Point] { return simHashPower{d: s.d, k: k} }

// simHashPower is core.Concat of k SimHash(d) families in one type. It
// consumes the rng, names itself, keys points and evaluates its CPF
// exactly as that concatenation does, so the two are interchangeable bit
// for bit; only the hasher differs: it packs the rows into one matrix and
// hashes point blocks through HashBatch.
type simHashPower struct{ d, k int }

func (s simHashPower) Name() string {
	part := simHash{d: s.d}.Name()
	return "concat(" + strings.Repeat(part+",", s.k-1) + part + ")"
}

// Sample draws the k hyperplanes in the concatenation's order, one
// d-vector after another, into one row-major matrix.
func (s simHashPower) Sample(rng *xrand.Rand) core.Pair[Point] {
	h := &packedSimHashHasher{d: s.d, k: s.k, rows: vec.Gaussian(rng, s.k*s.d)}
	return core.Pair[Point]{H: h, G: h}
}

// CPF multiplies k factors of SimHashCPF in the concatenation's order.
func (s simHashPower) CPF() core.CPF {
	k := s.k
	return core.CPF{Domain: core.DomainInnerProduct, Eval: func(alpha float64) float64 {
		f := SimHashCPF(alpha)
		prod := 1.0
		for i := 0; i < k; i++ {
			prod *= f
		}
		return prod
	}}
}

// packedSimHashHasher is one SimHash(d)^k draw: k Gaussian hyperplanes
// packed row-major into one contiguous k*d matrix. Its key folds the k
// sign bits through core.Combine starting from k, which is the digest
// core.Concat makes of k SimHash keys.
type packedSimHashHasher struct {
	d, k int
	rows []float64 // k*d Gaussian entries, row-major
}

// Hash computes each row's dot product with vec.Dot, exactly as the
// concatenation's parts do.
func (h *packedSimHashHasher) Hash(p Point) uint64 {
	acc := uint64(h.k)
	for r := 0; r < h.k; r++ {
		acc = core.Combine(acc, signBit(vec.Dot(h.rows[r*h.d:(r+1)*h.d], p)))
	}
	return acc
}

// HashBatch implements core.BatchHasher as a cache-blocked matrix product:
// four points advance through the packed rows together, so each row is
// loaded once per quartet instead of once per point, and the four
// independent accumulators break the serial FMA latency chain that bounds
// the scalar dot product. (Wider shapes — eight points, or row pairs with
// eight accumulators — were measured slower on amd64: they spill past the
// register file.) Every dot product keeps Hash's sequential i = 0..d-1
// accumulation order, so the keys are bit-identical to per-point Hash
// calls.
func (h *packedSimHashHasher) HashBatch(points []Point, out []uint64) {
	if len(out) < len(points) {
		panic("sphere: HashBatch output shorter than input")
	}
	d := h.d
	j := 0
	for ; j+4 <= len(points); j += 4 {
		p0, p1, p2, p3 := points[j], points[j+1], points[j+2], points[j+3]
		if len(p0) != d || len(p1) != d || len(p2) != d || len(p3) != d {
			panic("sphere: dimension mismatch")
		}
		p0, p1, p2, p3 = p0[:d], p1[:d], p2[:d], p3[:d]
		k := uint64(h.k)
		b0, b1, b2, b3 := k, k, k, k
		for r := 0; r < h.k; r++ {
			row := h.rows[r*d : (r+1)*d : (r+1)*d]
			var s0, s1, s2, s3 float64
			for i, v := range row {
				s0 += v * p0[i]
				s1 += v * p1[i]
				s2 += v * p2[i]
				s3 += v * p3[i]
			}
			b0 = core.Combine(b0, signBit(s0))
			b1 = core.Combine(b1, signBit(s1))
			b2 = core.Combine(b2, signBit(s2))
			b3 = core.Combine(b3, signBit(s3))
		}
		out[j], out[j+1], out[j+2], out[j+3] = b0, b1, b2, b3
	}
	for ; j < len(points); j++ {
		out[j] = h.Hash(points[j])
	}
}

// AntiSimHash returns the query-negated SimHash: h(x) = sign(<g, x>),
// g(y) = sign(<g, -y>), with exact CPF arccos(alpha)/pi -- decreasing in
// the similarity. It is the simplest instance of the paper's
// "negate the query point" trick on the sphere.
func AntiSimHash(d int) core.Family[Point] {
	if d <= 0 {
		panic("sphere: dimension must be positive")
	}
	return antiSimHash{d: d}
}

type antiSimHash struct{ d int }

func (s antiSimHash) Name() string { return fmt.Sprintf("antisimhash(d=%d)", s.d) }

func (s antiSimHash) Sample(rng *xrand.Rand) core.Pair[Point] {
	g := vec.Gaussian(rng, s.d)
	h := gaussSignHasher{g: g}
	neg := negatedHasher{inner: h}
	return core.Pair[Point]{H: h, G: neg}
}

func (s antiSimHash) CPF() core.CPF {
	return core.CPF{Domain: core.DomainInnerProduct, Eval: func(alpha float64) float64 {
		return SimHashCPF(-alpha)
	}}
}

// negatedHasher applies an inner hasher to the negated point: the paper's
// central asymmetry device (Sections 2.1, 2.2).
type negatedHasher struct{ inner core.Hasher[Point] }

// negScratch pools negation buffers so Hash is allocation-free in steady
// state. Buffers are pooled (not per-hasher) because one hasher may be
// shared by concurrent query workers.
var negScratch = sync.Pool{New: func() any { return new([]float64) }}

func (n negatedHasher) Hash(p Point) uint64 {
	bp := negScratch.Get().(*[]float64)
	buf := *bp
	if cap(buf) < len(p) {
		buf = make([]float64, len(p))
	}
	buf = buf[:len(p)]
	for i, v := range p {
		buf[i] = -v
	}
	key := n.inner.Hash(buf)
	*bp = buf
	negScratch.Put(bp)
	return key
}

// HashNeg hashes a point that the caller has already negated, letting the
// index layer negate a query once per query instead of once per
// repetition (internal/index recognizes this method on query hashers).
func (n negatedHasher) HashNeg(neg Point) uint64 { return n.inner.Hash(neg) }

// NegateQuery converts any symmetric sphere family with CPF f(alpha) into
// the family with CPF f(-alpha) by applying g to the negated query point.
func NegateQuery(fam core.Family[Point]) core.Family[Point] {
	return negateQueryFamily{inner: fam}
}

type negateQueryFamily struct{ inner core.Family[Point] }

func (n negateQueryFamily) Name() string { return "neg(" + n.inner.Name() + ")" }

func (n negateQueryFamily) Sample(rng *xrand.Rand) core.Pair[Point] {
	pair := n.inner.Sample(rng)
	return core.Pair[Point]{H: pair.H, G: negatedHasher{inner: pair.G}}
}

func (n negateQueryFamily) CPF() core.CPF {
	inner := n.inner.CPF()
	if inner.Domain != core.DomainInnerProduct {
		panic("sphere: NegateQuery requires an inner-product CPF")
	}
	return core.CPF{Domain: core.DomainInnerProduct, Eval: func(alpha float64) float64 {
		return inner.Eval(-alpha)
	}}
}
