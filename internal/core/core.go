// Package core defines the distance-sensitive hashing (DSH) framework of
// the paper: distributions over pairs of hash functions (h, g) whose
// collision probability Pr[h(x) = g(y)] is a prescribed function f of
// dist(x, y) (Definition 1.1), the collision probability function (CPF)
// abstraction, the Lemma 1.4 combinators (concatenation, powering,
// mixtures), and a Monte-Carlo harness for estimating CPFs with
// confidence intervals.
//
// Classical locality-sensitive hashing is the symmetric special case h = g
// with a CPF that decreases in distance; the Symmetric adapter embeds any
// LSH into this framework.
package core

import (
	"dsh/internal/xrand"
)

// Hasher maps points of type P to 64-bit hash values. Collisions of
// interest are exact equalities of these values; all constructions mix
// their discrete outputs through a strong 64-bit finalizer so that
// accidental collisions are negligible (probability ~2^-64).
type Hasher[P any] interface {
	Hash(p P) uint64
}

// BatchHasher is implemented by hashers that can evaluate a whole block of
// points in one call. HashBatch fills out[i] with exactly the key Hash
// would return for points[i] — implementations must produce bit-identical
// keys to point-at-a-time Hash calls (same floating-point evaluation order
// per point), so candidate streams derived from batched keys match the
// scalar path — while amortizing per-call setup and keeping one draw's
// parameters cache-resident as the block streams through. The index batch
// engine uses it to hash Q queries against one repetition's draws before
// moving to the next repetition. out must have at least len(points)
// entries; implementations panic otherwise.
type BatchHasher[P any] interface {
	Hasher[P]
	HashBatch(points []P, out []uint64)
}

// HasherFunc adapts a plain function to the Hasher interface.
type HasherFunc[P any] func(P) uint64

// Hash calls f(p).
func (f HasherFunc[P]) Hash(p P) uint64 { return f(p) }

// Pair is one draw (h, g) from a DSH family. Data points are hashed with H
// and query points with G; the asymmetry H != G is what extends the
// reachable class of CPFs beyond classical LSH.
type Pair[P any] struct {
	H, G Hasher[P]
}

// Collides reports whether x (hashed by H) and y (hashed by G) collide.
func (p Pair[P]) Collides(x, y P) bool { return p.H.Hash(x) == p.G.Hash(y) }

// Domain identifies the argument convention of a CPF.
type Domain int

const (
	// DomainDistance means the CPF argument is an absolute distance
	// (Euclidean constructions).
	DomainDistance Domain = iota
	// DomainRelativeHamming means the argument is a relative Hamming
	// distance in [0, 1] (bit-sampling style constructions).
	DomainRelativeHamming
	// DomainInnerProduct means the argument is an inner product /
	// similarity in [-1, 1] (unit-sphere constructions).
	DomainInnerProduct
)

// String returns a short human-readable name for the domain.
func (d Domain) String() string {
	switch d {
	case DomainDistance:
		return "distance"
	case DomainRelativeHamming:
		return "relative-hamming"
	case DomainInnerProduct:
		return "inner-product"
	default:
		return "unknown"
	}
}

// CPF is a collision probability function together with its argument
// convention. Eval may be an exact closed form, a numeric-integration
// approximation, or an asymptotic prediction, depending on the family;
// family documentation states which.
type CPF struct {
	Domain Domain
	Eval   func(x float64) float64
}

// Constant returns a CPF that is identically p on the given domain.
func Constant(domain Domain, p float64) CPF {
	return CPF{Domain: domain, Eval: func(float64) float64 { return p }}
}

// Family is a distance-sensitive hash family: a distribution over pairs
// (h, g) with a known collision probability function.
type Family[P any] interface {
	// Name returns a short identifier used in experiment tables.
	Name() string
	// Sample draws an independent (h, g) pair using rng.
	Sample(rng *xrand.Rand) Pair[P]
	// CPF returns the family's collision probability function.
	CPF() CPF
}

// mix64 is the SplitMix64 finalizer, used to combine discrete hash outputs
// injectively-with-overwhelming-probability into single 64-bit values.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Combine folds the next value into a running combined hash. Equal
// sequences produce equal results; unequal sequences collide with
// probability ~2^-64. It is the digest Concat folds its component keys
// with, starting from the number of components, exported so a family's
// fused concatenation (see Power) can emit exactly Concat's keys.
func Combine(acc, next uint64) uint64 {
	return mix64(acc ^ (next + 0x9e3779b97f4a7c15 + (acc << 6) + (acc >> 2)))
}

// Symmetric wraps a distribution over single functions (classical LSH) as a
// DSH family with h = g.
type Symmetric[P any] struct {
	FamilyName string
	SampleFn   func(rng *xrand.Rand) Hasher[P]
	Prob       CPF
}

// Name implements Family.
func (s Symmetric[P]) Name() string { return s.FamilyName }

// Sample implements Family: it draws one hasher and uses it on both sides.
func (s Symmetric[P]) Sample(rng *xrand.Rand) Pair[P] {
	h := s.SampleFn(rng)
	return Pair[P]{H: h, G: h}
}

// CPF implements Family.
func (s Symmetric[P]) CPF() CPF { return s.Prob }
