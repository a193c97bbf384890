package core

import (
	"fmt"
	"strings"

	"dsh/internal/xrand"
)

// concatFamily implements Lemma 1.4(a): concatenating n independent draws
// multiplies the collision probability functions.
type concatFamily[P any] struct {
	parts []Family[P]
}

// Concat returns the concatenation of the given families: a draw samples an
// (h_i, g_i) pair from every part and the combined hash value is a digest of
// the component values, so the combined pair collides exactly when every
// component pair collides. Its CPF is the product of the component CPFs
// (Lemma 1.4(a) of the paper). All parts must share the same CPF domain.
func Concat[P any](parts ...Family[P]) Family[P] {
	if len(parts) == 0 {
		panic("core: Concat of zero families")
	}
	if len(parts) == 1 {
		return parts[0]
	}
	d := parts[0].CPF().Domain
	for _, p := range parts[1:] {
		if p.CPF().Domain != d {
			panic("core: Concat across different CPF domains")
		}
	}
	return concatFamily[P]{parts: parts}
}

// fusedPower is implemented by families that provide their own k-fold
// concatenation: a family that draws, names, hashes and evaluates its CPF
// exactly as Concat of k draws of the receiver does, only faster.
type fusedPower[P any] interface {
	Power(k int) Family[P]
}

// Power returns the k-fold concatenation of family with itself, with CPF
// f(x)^k. This is the classical amplification ("powering") technique the
// paper invokes to drive collision probabilities below 1/n. For k >= 2 it
// returns the family's fused concatenation when the family provides one
// (sphere.SimHash does); Power(f, 1) is f.
func Power[P any](family Family[P], k int) Family[P] {
	if k <= 0 {
		panic("core: Power requires k >= 1")
	}
	if fp, ok := family.(fusedPower[P]); ok && k >= 2 {
		return fp.Power(k)
	}
	parts := make([]Family[P], k)
	for i := range parts {
		parts[i] = family
	}
	return Concat(parts...)
}

func (c concatFamily[P]) Name() string {
	names := make([]string, len(c.parts))
	for i, p := range c.parts {
		names[i] = p.Name()
	}
	return "concat(" + strings.Join(names, ",") + ")"
}

func (c concatFamily[P]) Sample(rng *xrand.Rand) Pair[P] {
	hs := make([]Hasher[P], len(c.parts))
	gs := make([]Hasher[P], len(c.parts))
	ngs := make([]negHasher, len(c.parts))
	negOK := true
	for i, p := range c.parts {
		pair := p.Sample(rng)
		hs[i] = pair.H
		gs[i] = pair.G
		if ng, ok := pair.G.(negHasher); ok {
			ngs[i] = ng
		} else {
			negOK = false
		}
	}
	var g Hasher[P] = combinedHasher[P]{parts: gs}
	if negOK {
		// Every component query hasher evaluates on the negated point, so
		// the concatenation does too: preserve the HashNeg fast path that
		// lets the index layer negate a query once across all components.
		g = combinedNegHasher[P]{combinedHasher[P]{parts: gs}, ngs}
	}
	return Pair[P]{H: combinedHasher[P]{parts: hs}, G: g}
}

// negHasher mirrors the index layer's per-query negation fast path: a
// hasher whose Hash evaluates on the negated point and can consume a
// pre-negated one. Combined hashers forward it when every component
// supports it.
type negHasher interface {
	HashNeg(neg []float64) uint64
}

// combinedHasher digests the component hash values in order, exactly as
// the concatenation's collision semantics require.
type combinedHasher[P any] struct {
	parts []Hasher[P]
}

func (c combinedHasher[P]) Hash(x P) uint64 {
	acc := uint64(len(c.parts))
	for _, h := range c.parts {
		acc = Combine(acc, h.Hash(x))
	}
	return acc
}

// combinedNegHasher is a combinedHasher whose components all hash the
// negated point; HashNeg feeds each one the caller's pre-negated query.
type combinedNegHasher[P any] struct {
	combinedHasher[P]
	negs []negHasher
}

func (c combinedNegHasher[P]) HashNeg(neg []float64) uint64 {
	acc := uint64(len(c.negs))
	for _, ng := range c.negs {
		acc = Combine(acc, ng.HashNeg(neg))
	}
	return acc
}

func (c concatFamily[P]) CPF() CPF {
	cpfs := make([]CPF, len(c.parts))
	for i, p := range c.parts {
		cpfs[i] = p.CPF()
	}
	return CPF{
		Domain: cpfs[0].Domain,
		Eval: func(x float64) float64 {
			prod := 1.0
			for _, f := range cpfs {
				prod *= f.Eval(x)
			}
			return prod
		},
	}
}

// mixtureFamily implements Lemma 1.4(b): a convex combination of families.
type mixtureFamily[P any] struct {
	parts   []Family[P]
	weights []float64
	cum     []float64
}

// Mixture returns the family that first picks index i with probability
// weights[i] and then samples from parts[i]; the hash values are tagged with
// i so that draws from different components never collide. Its CPF is the
// convex combination sum_i weights[i] * f_i (Lemma 1.4(b) of the paper).
// The weights must be non-negative and sum to 1 (within 1e-9); domains must
// agree.
func Mixture[P any](parts []Family[P], weights []float64) Family[P] {
	if len(parts) == 0 || len(parts) != len(weights) {
		panic("core: Mixture requires matching non-empty parts and weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("core: Mixture weight negative")
		}
		sum += w
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		panic(fmt.Sprintf("core: Mixture weights sum to %v, want 1", sum))
	}
	d := parts[0].CPF().Domain
	for _, p := range parts[1:] {
		if p.CPF().Domain != d {
			panic("core: Mixture across different CPF domains")
		}
	}
	m := mixtureFamily[P]{
		parts:   parts,
		weights: append([]float64(nil), weights...),
		cum:     make([]float64, len(weights)),
	}
	acc := 0.0
	for i, w := range weights {
		acc += w
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1 // guard against rounding
	return m
}

func (m mixtureFamily[P]) Name() string {
	names := make([]string, len(m.parts))
	for i, p := range m.parts {
		names[i] = fmt.Sprintf("%.3g*%s", m.weights[i], p.Name())
	}
	return "mix(" + strings.Join(names, ",") + ")"
}

func (m mixtureFamily[P]) Sample(rng *xrand.Rand) Pair[P] {
	u := rng.Float64()
	idx := len(m.cum) - 1
	for i, c := range m.cum {
		if u < c {
			idx = i
			break
		}
	}
	inner := m.parts[idx].Sample(rng)
	tag := uint64(idx + 1)
	var g Hasher[P] = taggedHasher[P]{tag: tag, inner: inner.G}
	if ng, ok := inner.G.(negHasher); ok {
		g = taggedNegHasher[P]{taggedHasher[P]{tag: tag, inner: inner.G}, ng}
	}
	return Pair[P]{H: taggedHasher[P]{tag: tag, inner: inner.H}, G: g}
}

// taggedHasher combines a mixture component's hash with the component
// index so draws from different components never collide.
type taggedHasher[P any] struct {
	tag   uint64
	inner Hasher[P]
}

func (t taggedHasher[P]) Hash(x P) uint64 { return Combine(t.tag, t.inner.Hash(x)) }

// taggedNegHasher preserves the component's HashNeg fast path through the
// mixture tag.
type taggedNegHasher[P any] struct {
	taggedHasher[P]
	neg negHasher
}

func (t taggedNegHasher[P]) HashNeg(neg []float64) uint64 {
	return Combine(t.tag, t.neg.HashNeg(neg))
}

func (m mixtureFamily[P]) CPF() CPF {
	cpfs := make([]CPF, len(m.parts))
	for i, p := range m.parts {
		cpfs[i] = p.CPF()
	}
	weights := m.weights
	return CPF{
		Domain: cpfs[0].Domain,
		Eval: func(x float64) float64 {
			var sum float64
			for i, f := range cpfs {
				sum += weights[i] * f.Eval(x)
			}
			return sum
		},
	}
}

// Renamed wraps a family with a different display name, convenient for
// experiment tables.
type Renamed[P any] struct {
	Inner   Family[P]
	NewName string
}

// Name implements Family.
func (r Renamed[P]) Name() string { return r.NewName }

// Sample implements Family.
func (r Renamed[P]) Sample(rng *xrand.Rand) Pair[P] { return r.Inner.Sample(rng) }

// CPF implements Family.
func (r Renamed[P]) CPF() CPF { return r.Inner.CPF() }
