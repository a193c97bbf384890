package index

import (
	"reflect"
	"sync"
	"testing"

	"dsh/internal/bitvec"
	"dsh/internal/core"
	"dsh/internal/euclid"
	"dsh/internal/hamming"
	"dsh/internal/sphere"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// refTables rebuilds the map-based reference layout from an index's
// sampled pairs: exactly what New stored before the flat-table layout.
func refTables[P any](ix *Index[P]) []map[uint64][]int32 {
	tables := make([]map[uint64][]int32, ix.L())
	for i, pair := range ix.pairs {
		table := make(map[uint64][]int32)
		for j, p := range ix.points {
			key := pair.H.Hash(p)
			table[key] = append(table[key], int32(j))
		}
		tables[i] = table
	}
	return tables
}

// refCandidates streams the reference candidate sequence (order and
// duplicates included) for q against the map layout.
func refCandidates[P any](ix *Index[P], tables []map[uint64][]int32, q P) []int {
	var out []int
	for i, pair := range ix.pairs {
		key := pair.G.Hash(q)
		for _, id := range tables[i][key] {
			out = append(out, int(id))
		}
	}
	return out
}

// refCollectDistinct is the original map-based CollectDistinct.
func refCollectDistinct(seq []int, max int) []int {
	seen := make(map[int]struct{})
	var out []int
	for _, id := range seq {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, id)
		}
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

func TestFlatTableMatchesMapReference(t *testing.T) {
	rng := xrand.New(101)
	for _, n := range []int{0, 1, 7, 100, 1000} {
		// Keys drawn from a small universe so buckets hold many ids and
		// open addressing sees plenty of probe collisions.
		keys := make([]uint64, n)
		for j := range keys {
			keys[j] = rng.Uint64() % 37
		}
		table := buildFlatTable(keys)
		ref := make(map[uint64][]int32)
		for j, key := range keys {
			ref[key] = append(ref[key], int32(j))
		}
		if table.buckets() != len(ref) {
			t.Fatalf("n=%d: %d buckets, want %d", n, table.buckets(), len(ref))
		}
		for key, want := range ref {
			if got := table.lookup(key); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d key=%d: lookup %v, want %v", n, key, got, want)
			}
		}
		for probe := uint64(0); probe < 64; probe++ {
			key := rng.Uint64()
			if got := table.lookup(key); !reflect.DeepEqual(got, ref[key]) {
				t.Fatalf("n=%d absent key=%d: lookup %v, want %v", n, key, got, ref[key])
			}
		}
	}
}

func TestU64SetMatchesMap(t *testing.T) {
	rng := xrand.New(102)
	set := newU64Set(4)
	ref := make(map[uint64]struct{})
	for i := 0; i < 20000; i++ {
		key := rng.Uint64() % 5000 // force duplicates and growth
		_, dup := ref[key]
		ref[key] = struct{}{}
		if got := set.add(key); got == dup {
			t.Fatalf("add(%d) = %v, want %v", key, got, !dup)
		}
	}
	if set.n != len(ref) {
		t.Fatalf("set holds %d keys, want %d", set.n, len(ref))
	}
}

// TestCandidatesMatchMapReference is the differential test: across
// Hamming, sphere, and Euclidean families, the flat layout must visit id
// sequences identical (same order, same duplicates) to the map-based
// reference, and CollectDistinct must match the map-based dedup exactly.
func TestCandidatesMatchMapReference(t *testing.T) {
	const n, nq, L = 600, 40, 24

	t.Run("hamming", func(t *testing.T) {
		rng := xrand.New(201)
		const d = 128
		pts := make([]bitvec.Vector, n)
		for i := range pts {
			pts[i] = bitvec.Random(rng, d)
		}
		fam := core.Power[bitvec.Vector](hamming.BitSampling(d), 6)
		ix := New(rng, fam, L, pts)
		queries := make([]bitvec.Vector, nq)
		for i := range queries {
			queries[i] = bitvec.AtDistance(rng, pts[i], d/8)
		}
		diffCheck(t, ix, queries)
	})

	t.Run("sphere-negated", func(t *testing.T) {
		rng := xrand.New(202)
		const d = 24
		pts := workload.SpherePoints(rng, n, d)
		// NegateQuery exercises the HashNeg hoisting on the query side.
		fam := core.Power[[]float64](sphere.NegateQuery(sphere.SimHash(d)), 4)
		ix := New(rng, fam, L, pts)
		queries := workload.SpherePoints(rng, nq, d)
		diffCheck(t, ix, queries)
	})

	t.Run("sphere-annulus", func(t *testing.T) {
		rng := xrand.New(203)
		const d = 24
		pts := workload.SpherePoints(rng, n, d)
		fam := sphere.NewAnnulus(d, 0.5, 1.6)
		ix := New(rng, fam, L, pts)
		queries := workload.SpherePoints(rng, nq, d)
		diffCheck(t, ix, queries)
	})

	t.Run("euclid", func(t *testing.T) {
		rng := xrand.New(204)
		const d = 16
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = vec.Gaussian(rng, d)
		}
		fam := euclid.NewPStable(d, 2, 1.5)
		ix := New(rng, fam, L, pts)
		queries := make([][]float64, nq)
		for i := range queries {
			queries[i] = vec.Gaussian(rng, d)
		}
		diffCheck(t, ix, queries)
	})
}

// diffCheck compares the flat index's Candidates stream, Querier stream,
// and CollectDistinct output against the map-based reference for every
// query.
func diffCheck[P any](t *testing.T, ix *Index[P], queries []P) {
	t.Helper()
	tables := refTables(ix)
	qr := ix.NewQuerier()
	for qi, q := range queries {
		want := refCandidates(ix, tables, q)

		var got []int
		ix.Candidates(q, func(id int) bool { got = append(got, id); return true })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: Candidates stream diverges from map reference\ngot  %v\nwant %v", qi, got, want)
		}

		got = got[:0]
		qr.Candidates(q, func(id int) bool { got = append(got, id); return true })
		if len(got) != len(want) {
			t.Fatalf("query %d: Querier.Candidates length %d, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: Querier.Candidates diverges at %d: %d != %d", qi, i, got[i], want[i])
			}
		}

		for _, max := range []int{0, 1, 3, len(want)} {
			wantDistinct := refCollectDistinct(want, max)
			if gotDistinct := ix.CollectDistinct(q, max); !reflect.DeepEqual(gotDistinct, wantDistinct) {
				t.Fatalf("query %d max=%d: CollectDistinct %v, want %v", qi, max, gotDistinct, wantDistinct)
			}
			qrDistinct, stats := qr.CollectDistinct(q, max)
			if len(qrDistinct) != len(wantDistinct) {
				t.Fatalf("query %d max=%d: Querier.CollectDistinct length %d, want %d", qi, max, len(qrDistinct), len(wantDistinct))
			}
			for i := range qrDistinct {
				if qrDistinct[i] != wantDistinct[i] {
					t.Fatalf("query %d max=%d: Querier.CollectDistinct diverges at %d", qi, max, i)
				}
			}
			if stats.Distinct != len(wantDistinct) {
				t.Fatalf("query %d max=%d: stats.Distinct=%d, want %d", qi, max, stats.Distinct, len(wantDistinct))
			}
		}
	}
}

// TestQueryPathZeroAlloc asserts the acceptance criterion directly:
// steady-state queries through a Querier perform zero heap allocations on
// a Hamming bit-sampling index, for the distinct-collection, annulus, and
// range-reporting paths.
func TestQueryPathZeroAlloc(t *testing.T) {
	rng := xrand.New(301)
	const d, n, L = 256, 4000, 48
	pts := make([]bitvec.Vector, n)
	for i := range pts {
		pts[i] = bitvec.Random(rng, d)
	}
	fam := core.Power[bitvec.Vector](hamming.BitSampling(d), 8)
	q := bitvec.AtDistance(rng, pts[0], d/16)

	ix := New(rng, fam, L, pts)
	qr := ix.NewQuerier()
	qr.CollectDistinct(q, 0) // warm the output buffer
	if allocs := testing.AllocsPerRun(100, func() { qr.CollectDistinct(q, 0) }); allocs != 0 {
		t.Errorf("Querier.CollectDistinct allocates %.1f/op, want 0", allocs)
	}

	within := func(a, b bitvec.Vector) bool { return bitvec.Distance(a, b) <= d/8 }
	ai := NewAnnulus(rng, fam, L, pts, within)
	aqr := ai.Source().NewQuerier()
	ai.QueryWith(aqr, q)
	if allocs := testing.AllocsPerRun(100, func() { ai.QueryWith(aqr, q) }); allocs != 0 {
		t.Errorf("AnnulusIndex.QueryWith allocates %.1f/op, want 0", allocs)
	}

	rr := NewRangeReporter(rng, fam, L, pts, within)
	rqr := rr.Source().NewQuerier()
	dst, _ := rr.AppendQueryWith(rqr, nil, q)
	dst = dst[:0]
	if allocs := testing.AllocsPerRun(100, func() { dst, _ = rr.AppendQueryWith(rqr, dst[:0], q) }); allocs != 0 {
		t.Errorf("RangeReporter.AppendQueryWith allocates %.1f/op, want 0", allocs)
	}
}

// TestNegatedQueryHoistZeroAlloc checks that NegateQuery-backed sphere
// indexes hash the negated query once per query into reused scratch: the
// steady-state Querier path stays allocation-free despite the asymmetric
// query hasher.
func TestNegatedQueryHoistZeroAlloc(t *testing.T) {
	rng := xrand.New(302)
	const d, n, L = 24, 2000, 32
	pts := workload.SpherePoints(rng, n, d)
	for name, fam := range map[string]core.Family[[]float64]{
		"plain": sphere.NegateQuery(sphere.SimHash(d)),
		// Amplification must not strip the fast path: Concat/Power
		// forward HashNeg when every component supports it.
		"powered": core.Power[[]float64](sphere.NegateQuery(sphere.SimHash(d)), 4),
	} {
		ix := New(rng, fam, L, pts)
		if got := len(ix.negG); got != L {
			t.Fatalf("%s: negG not frozen: len=%d", name, got)
		}
		for i, nh := range ix.negG {
			if nh == nil {
				t.Fatalf("%s: repetition %d lost the HashNeg fast path", name, i)
			}
		}
		q := vec.RandomUnit(rng, d)
		qr := ix.NewQuerier()
		qr.CollectDistinct(q, 0)
		if allocs := testing.AllocsPerRun(100, func() { qr.CollectDistinct(q, 0) }); allocs != 0 {
			t.Errorf("%s: negated-query CollectDistinct allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestBatchPooledScratchRace hammers the pooled Querier scratch from
// concurrent batch and single-query paths at once; run under -race this
// verifies the scratch objects are never shared between goroutines, and
// the results must still match the sequential reference.
func TestBatchPooledScratchRace(t *testing.T) {
	rng := xrand.New(303)
	const d, n, nq, L = 24, 800, 64, 20
	pts := workload.SpherePoints(rng, n, d)
	fam := core.Power[[]float64](sphere.NegateQuery(sphere.SimHash(d)), 2)
	ix := New(rng, fam, L, pts)
	queries := workload.SpherePoints(rng, nq, d)

	want := make([][]int, nq)
	for i, q := range queries {
		want[i] = ix.CollectDistinct(q, 0)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, _, _ := ix.QueryBatch(queries, BatchOptions{Workers: 8})
			for i := range out {
				if !reflect.DeepEqual(out[i], want[i]) {
					t.Errorf("concurrent QueryBatch diverges at query %d", i)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				if got := ix.CollectDistinct(q, 0); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("concurrent CollectDistinct diverges at query %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRangeReporterBatchMatchesSequential pins the batch range-reporting
// path (per-worker Querier scratch) to the sequential Query results.
func TestRangeReporterBatchMatchesSequential(t *testing.T) {
	rng := xrand.New(304)
	const d, n, nq = 24, 500, 48
	pts := workload.SpherePoints(rng, n, d)
	fam := sphere.NewStep(d, 0.6, 0.9, 3, 1.5)
	inRange := func(q, x []float64) bool { return vec.Dot(q, x) >= 0.6 }
	rr := NewRangeReporter(rng, fam, 16, pts, inRange)
	queries := workload.SpherePoints(rng, nq, d)

	wantIDs := make([][]int, nq)
	wantStats := make([]QueryStats, nq)
	for i, q := range queries {
		wantIDs[i], wantStats[i] = rr.Query(q)
	}
	for _, workers := range []int{1, 4} {
		gotIDs, per, _ := rr.QueryBatch(queries, BatchOptions{Workers: workers})
		for i := range gotIDs {
			if !reflect.DeepEqual(gotIDs[i], wantIDs[i]) {
				t.Fatalf("workers=%d query %d: batch ids %v, want %v", workers, i, gotIDs[i], wantIDs[i])
			}
			per[i].Latency = 0
			if per[i] != wantStats[i] {
				t.Fatalf("workers=%d query %d: batch stats %+v, want %+v", workers, i, per[i], wantStats[i])
			}
		}
	}
}
