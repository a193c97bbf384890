// Query veneers: the Section 6 search structures written once over the
// candidateSource core and instantiated over any backend. A veneer holds
// no storage of its own — it binds a predicate to a Source, so the same
// AnnulusIndex/RangeReporter type serves a frozen Index, a churning
// ShardedIndex or a snapshot of one with identical semantics
// (and, for identical live points and rng streams, identical results).
package index

import (
	"dsh/internal/core"
	"dsh/internal/xrand"
)

// NewAnnulusOver wraps any serving backend — static, sharded, or a
// snapshot — in the Theorem 6.1 annulus-search algorithm. The
// veneer shares the backend's storage (mutations on a live backend are
// visible to subsequent queries immediately; a snapshot backend stays
// pinned), several veneers may wrap one backend, and each inherits its
// concurrency contract. NewAnnulusOver panics when src is nil.
func NewAnnulusOver[P any](src Source[P], within func(q, x P) bool) *AnnulusIndex[P] {
	if src == nil {
		panic("index: source must be non-nil")
	}
	return &AnnulusIndex[P]{src: src, within: within}
}

// NewRangeReporterOver wraps any serving backend — static, sharded, or a
// snapshot — in the Theorem 6.5 reporting
// algorithm; see NewAnnulusOver for the sharing and concurrency contract.
// NewRangeReporterOver panics when src is nil.
func NewRangeReporterOver[P any](src Source[P], inRange func(q, x P) bool) *RangeReporter[P] {
	if src == nil {
		panic("index: source must be non-nil")
	}
	return &RangeReporter[P]{src: src, inRange: inRange}
}

// AnnulusIndex solves the approximate annulus search problem of
// Theorem 6.1: given a family whose CPF peaks inside the target interval,
// a query retrieves collision candidates and returns the first whose
// distance lies in the report interval, scanning at most 8L candidates.
//
// An AnnulusIndex is safe for concurrent use whenever its backend is: the
// static backend is immutable, and the dynamic backend may absorb
// concurrent Inserts, Deletes and compactions while queries run. The
// within predicate is called inside the query's read window — over a
// dynamic backend it must not call back into the index's mutating or
// locking methods (Insert, Delete, Flush, Compact, Len, Point, ...), or
// the query deadlocks; compare points using only the two arguments.
type AnnulusIndex[P any] struct {
	src Source[P]
	// within reports whether a candidate point lies in the *report*
	// interval [beta-, beta+] relative to the query.
	within func(q, x P) bool
}

// NewAnnulus builds the Theorem 6.1 structure over a fresh static index:
// family should have a CPF peaking inside the target interval;
// L = ceil(1/f(peak)) repetitions; within decides membership in the report
// interval.
func NewAnnulus[P any](rng *xrand.Rand, family core.Family[P], L int, points []P, within func(q, x P) bool) *AnnulusIndex[P] {
	return &AnnulusIndex[P]{src: New(rng, family, L, points), within: within}
}

// Query returns the id of some point within the report interval of q, or
// -1 if none was found among the first 8L candidates (the Markov-bound
// early termination from the proof of Theorem 6.1). Safe for concurrent
// use whenever the backend is (it draws per-query scratch from the
// backend's pool and runs inside one consistent read window, so it may
// overlap mutations, freezes and compactions on a dynamic backend).
func (ai *AnnulusIndex[P]) Query(q P) (int, QueryStats) {
	rp := ai.src.reads()
	qr := rp.acquireSQ()
	id, stats := qr.annulusQuery(q, ai.within)
	rp.releaseSQ(qr)
	return id, stats
}

// QueryWith is Query with an explicit Querier drawn from the veneer's
// Source, for callers that manage their own per-goroutine scratch. The
// steady state allocates nothing. The Querier is not safe for concurrent
// use: callers serialize access to it (one per goroutine). QueryWith
// panics when qr belongs to another backend.
func (ai *AnnulusIndex[P]) QueryWith(qr *Querier[P], q P) (int, QueryStats) {
	mustBelong(qr, ai.src)
	return qr.annulusQuery(q, ai.within)
}

// Source exposes the veneer's backend as a Source handle, whichever
// concrete backend it is; its NewQuerier feeds QueryWith.
func (ai *AnnulusIndex[P]) Source() Source[P] { return ai.src }

// mustBelong panics unless qr was drawn from src.
func mustBelong[P any](qr *Querier[P], src Source[P]) {
	if qr.rp != src.reads() {
		panic("index: Querier bound to a different index")
	}
}

// RangeReporter solves approximate spherical range reporting
// (Theorem 6.5): report every point within the target range of the query,
// each with probability >= 1 - (1-fmin)^L, verifying candidates and
// deduplicating across repetitions.
//
// A RangeReporter is safe for concurrent use whenever its backend is, and
// its inRange predicate runs inside the query's read window — over a
// dynamic backend it must not call back into the index; see AnnulusIndex.
type RangeReporter[P any] struct {
	src Source[P]
	// inRange reports whether x lies within the report radius r+ of q.
	inRange func(q, x P) bool
}

// NewRangeReporter builds the reporting structure over a fresh static
// index with L = ceil(1/fmin) repetitions, where fmin is the minimum CPF
// value over the target range.
func NewRangeReporter[P any](rng *xrand.Rand, family core.Family[P], L int, points []P, inRange func(q, x P) bool) *RangeReporter[P] {
	return &RangeReporter[P]{src: New(rng, family, L, points), inRange: inRange}
}

// Query returns the distinct ids of reported points within range of q.
// Every candidate is verified once, so the work is Probes bucket lookups
// plus Distinct distance evaluations. The returned slice is owned by the
// caller; AppendQuery is the allocation-free variant.
func (rr *RangeReporter[P]) Query(q P) ([]int, QueryStats) {
	return rr.AppendQuery(nil, q)
}

// AppendQuery appends the distinct ids of reported points within range of
// q to dst and returns the extended slice. Reusing dst across queries
// makes the steady-state reporting path allocation-free. Safe for
// concurrent use whenever the backend is, provided each goroutine passes
// its own dst; see AnnulusIndex.Query for the read-window contract.
func (rr *RangeReporter[P]) AppendQuery(dst []int, q P) ([]int, QueryStats) {
	rp := rr.src.reads()
	qr := rp.acquireSQ()
	dst, stats := qr.appendRange(dst, q, rr.inRange)
	rp.releaseSQ(qr)
	return dst, stats
}

// AppendQueryWith is AppendQuery with an explicit Querier drawn from the
// veneer's Source, for callers that manage their own per-goroutine
// scratch; the Querier is not safe for concurrent use. AppendQueryWith
// panics when qr belongs to another backend.
func (rr *RangeReporter[P]) AppendQueryWith(qr *Querier[P], dst []int, q P) ([]int, QueryStats) {
	mustBelong(qr, rr.src)
	return qr.appendRange(dst, q, rr.inRange)
}

// Source exposes the veneer's backend as a Source handle, whichever
// concrete backend it is; its NewQuerier feeds AppendQueryWith.
func (rr *RangeReporter[P]) Source() Source[P] { return rr.src }
