package index

import (
	"math"

	"dsh/internal/core"
	"dsh/internal/sphere"
	"dsh/internal/vec"
	"dsh/internal/xrand"
)

// HyperplaneIndex answers hyperplane queries (Section 6.1 of the paper):
// given a query vector q (the normal of a hyperplane), find a data point
// approximately *orthogonal* to q, i.e. with |<x, q>| <= alpha. This is
// the annulus-search special case centered at inner product 0, previously
// handled by the ad-hoc constructions of Vijayanarasimhan et al. that the
// paper's lower bound shows to be near-optimal.
type HyperplaneIndex struct {
	inner *AnnulusIndex[[]float64]
	alpha float64
}

// NewHyperplane builds the structure over unit vectors: a query returns a
// point with |<x, q>| <= alpha (if one exists, with the Theorem 6.1
// constant success probability). t controls the sharpness of the
// underlying filter family; 1.5-2.5 is a practical range.
func NewHyperplane(rng *xrand.Rand, d int, alpha, t float64, points [][]float64) *HyperplaneIndex {
	if alpha <= 0 || alpha >= 1 {
		panic("index: hyperplane tolerance must lie in (0, 1)")
	}
	fam := sphere.NewAnnulus(d, 0, t)
	L := RepetitionsForCPF(fam.CPF().Eval(0))
	within := func(q, x []float64) bool {
		return math.Abs(vec.Dot(q, x)) <= alpha
	}
	return &HyperplaneIndex{
		inner: NewAnnulus[[]float64](rng, fam, L, points, within),
		alpha: alpha,
	}
}

// Query returns the id of a point with |<x, q>| <= alpha, or -1.
func (hi *HyperplaneIndex) Query(q []float64) (int, QueryStats) {
	return hi.inner.Query(q)
}

// NewQuerier returns a reusable query scratch bound to the underlying
// index, for callers that drive many sequential queries through QueryWith.
func (hi *HyperplaneIndex) NewQuerier() *Querier[[]float64] {
	return hi.inner.Source().NewQuerier()
}

// QueryWith is Query with an explicit Querier, avoiding the internal
// scratch pool on the hot path.
func (hi *HyperplaneIndex) QueryWith(qr *Querier[[]float64], q []float64) (int, QueryStats) {
	return hi.inner.QueryWith(qr, q)
}

// Alpha returns the orthogonality tolerance.
func (hi *HyperplaneIndex) Alpha() float64 { return hi.alpha }

// L returns the repetition count of the underlying index.
func (hi *HyperplaneIndex) L() int { return hi.inner.Source().L() }

// HyperplaneRho returns the paper's exponent for hyperplane queries with
// guarantee band [-alpha, alpha]: rho* = (1 - alpha^2) / (1 + alpha^2)
// (Section 6.1). Sublinear query time for every alpha > 0.
func HyperplaneRho(alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("index: alpha out of (0, 1)")
	}
	return (1 - alpha*alpha) / (1 + alpha*alpha)
}

var _ core.Family[[]float64] = (*sphere.AnnulusFamily)(nil)
