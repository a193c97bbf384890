package index

import (
	"reflect"
	"testing"

	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestDynamicVeneersMatchStaticRebuild is the serving-parity differential
// test of the candidate-source refactor: after an arbitrary interleaving
// of inserts, deletes, flushes and compactions, the AnnulusIndex and
// RangeReporter veneers over a one-shard index must return exactly what
// the same veneers return over a static Index rebuilt from the survivors
// with the same rng stream — same ids (mapped through the survivors'
// global ids), same work counters, before and after compaction.
func TestDynamicVeneersMatchStaticRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fam := sphere.NewAnnulus(testDim, 0.5, 1.6)
		const L = 18
		within := withinSim(0.3, 0.7)
		initial := workload.SpherePoints(xrand.New(seed*100), 120, testDim)

		dx := newOneShard[[]float64](xrand.New(seed), fam, L, initial,
			DynamicOptions{MemtableThreshold: 40})
		survivors, ids := churnDynamic(t, xrand.New(seed*777), dx, 400)

		// Static rebuild over the survivors with the same rng stream:
		// NewAnnulus and NewSharded both consume exactly L Sample
		// calls, so the repetition draws coincide.
		staticAI := NewAnnulus[[]float64](xrand.New(seed), fam, L, survivors, within)
		staticRR := NewRangeReporter[[]float64](xrand.New(seed), fam, L, survivors, within)
		dynAI := NewAnnulusOver(dx, within)
		dynRR := NewRangeReporterOver(dx, within)

		toStatic := make(map[int]int, len(ids))
		for pos, id := range ids {
			toStatic[id] = pos
		}

		queries := workload.SpherePoints(xrand.New(seed*999), 24, testDim)
		queries = append(queries, survivors[:min(4, len(survivors))]...)

		check := func(label string, compacted bool) {
			t.Helper()
			for qi, q := range queries {
				wantID, wantStats := staticAI.Query(q)
				gotID, gotStats := dynAI.Query(q)
				mapped := -1
				if gotID >= 0 {
					pos, ok := toStatic[gotID]
					if !ok {
						t.Fatalf("seed %d %s query %d: annulus hit %d is not a survivor", seed, label, qi, gotID)
					}
					mapped = pos
				}
				if mapped != wantID {
					t.Fatalf("seed %d %s query %d: annulus id %d != static %d", seed, label, qi, mapped, wantID)
				}
				if gotStats.Candidates != wantStats.Candidates || gotStats.Verified != wantStats.Verified {
					t.Fatalf("seed %d %s query %d: annulus stats %+v != static %+v", seed, label, qi, gotStats, wantStats)
				}

				wantIDs, wantRS := staticRR.Query(q)
				gotIDs, gotRS := dynRR.Query(q)
				mappedIDs := make([]int, len(gotIDs))
				for i, id := range gotIDs {
					pos, ok := toStatic[id]
					if !ok {
						t.Fatalf("seed %d %s query %d: reported id %d is not a survivor", seed, label, qi, id)
					}
					mappedIDs[i] = pos
				}
				if len(mappedIDs) != 0 || len(wantIDs) != 0 {
					if !reflect.DeepEqual(mappedIDs, wantIDs) {
						t.Fatalf("seed %d %s query %d: range ids %v != static %v", seed, label, qi, mappedIDs, wantIDs)
					}
				}
				if gotRS.Candidates != wantRS.Candidates || gotRS.Distinct != wantRS.Distinct || gotRS.Verified != wantRS.Verified {
					t.Fatalf("seed %d %s query %d: range stats %+v != static %+v", seed, label, qi, gotRS, wantRS)
				}
				if gotRS.Probes < wantRS.Probes {
					t.Fatalf("seed %d %s query %d: dynamic probes %d below static %d", seed, label, qi, gotRS.Probes, wantRS.Probes)
				}
				if compacted && gotRS.Probes != wantRS.Probes {
					t.Fatalf("seed %d %s query %d: post-compact probes %d != static %d", seed, label, qi, gotRS.Probes, wantRS.Probes)
				}
			}
		}

		check("pre-compact", false)
		dx.Compact()
		check("post-compact", true)

		// The batch veneers over the dynamic backend must agree with
		// their own sequential paths.
		batchIDs, _, _ := dynAI.QueryBatch(queries, BatchOptions{Workers: 4})
		rrBatch, _, _ := dynRR.QueryBatch(queries, BatchOptions{Workers: 4})
		for qi, q := range queries {
			if seqID, _ := dynAI.Query(q); batchIDs[qi] != seqID {
				t.Fatalf("seed %d query %d: annulus batch id %d != sequential %d", seed, qi, batchIDs[qi], seqID)
			}
			seqIDs, _ := dynRR.Query(q)
			if len(seqIDs) == 0 {
				seqIDs = nil
			}
			if !reflect.DeepEqual(rrBatch[qi], seqIDs) {
				t.Fatalf("seed %d query %d: range batch %v != sequential %v", seed, qi, rrBatch[qi], seqIDs)
			}
		}
	}
}

// TestDynamicVeneerBackendAccessors pins the backend-binding contract:
// QueryWith rejects queriers bound to another backend.
func TestDynamicVeneerBackendAccessors(t *testing.T) {
	rng := xrand.New(42)
	pts := workload.SpherePoints(rng, 50, testDim)
	within := withinSim(0.3, 0.7)

	static := NewAnnulus[[]float64](xrand.New(1), dynamicFamily(), 8, pts, within)

	defer func() {
		if recover() == nil {
			t.Error("QueryWith with a foreign Querier should panic")
		}
	}()
	other := NewAnnulus[[]float64](xrand.New(2), dynamicFamily(), 8, pts, within)
	static.QueryWith(other.Source().NewQuerier(), pts[0])
}

// TestDynamicQueryBatchStatsMatchStaticRebuild pins the per-query
// QueryStats of a one-shard index's QueryBatch against a static rebuild
// over the survivors: candidate and distinct counts must be identical in
// every layered state (stats aggregate whole repetitions across all
// segments plus the memtable, even when MaxCandidates truncates the
// distinct collection mid-probe), and after Compact the probe counts
// coincide too.
func TestDynamicQueryBatchStatsMatchStaticRebuild(t *testing.T) {
	const seed, L = 9, 16
	fam := dynamicFamily()
	pts := workload.SpherePoints(xrand.New(seed*10), 300, testDim)

	dx := newOneShard(xrand.New(seed), fam, L, pts[:150], DynamicOptions{MemtableThreshold: 48})
	for _, p := range pts[150:] {
		dx.Insert(p)
	}
	for id := 0; id < 300; id += 6 {
		dx.Delete(id)
	}
	if dx.Segments() < 3 || dx.MemtableLen() == 0 {
		t.Fatalf("fixture not layered: %d segments, %d memtable entries", dx.Segments(), dx.MemtableLen())
	}

	var survivors [][]float64
	for id := 0; id < 300; id++ {
		if !dx.Deleted(id) {
			survivors = append(survivors, dx.Point(id))
		}
	}
	static := New(xrand.New(seed), fam, L, survivors)
	queries := workload.SpherePoints(xrand.New(seed*20), 32, testDim)

	compare := func(label string, compacted bool) {
		t.Helper()
		for _, max := range []int{0, 4} {
			_, per, agg := dx.QueryBatch(queries, BatchOptions{Workers: 4, MaxCandidates: max})
			_, sper, _ := static.QueryBatch(queries, BatchOptions{Workers: 4, MaxCandidates: max})
			var sumProbes, sumCands int64
			for i := range queries {
				if per[i].Candidates != sper[i].Candidates || per[i].Distinct != sper[i].Distinct {
					t.Fatalf("%s max=%d query %d: dynamic stats %+v != static %+v", label, max, i, per[i], sper[i])
				}
				if per[i].Probes < sper[i].Probes {
					t.Fatalf("%s max=%d query %d: dynamic probes %d below static %d", label, max, i, per[i].Probes, sper[i].Probes)
				}
				if compacted && per[i].Probes != sper[i].Probes {
					t.Fatalf("%s max=%d query %d: post-compact probes %d != static %d", label, max, i, per[i].Probes, sper[i].Probes)
				}
				sumProbes += int64(per[i].Probes)
				sumCands += int64(per[i].Candidates)
			}
			if agg.Probes != sumProbes || agg.Candidates != sumCands {
				t.Fatalf("%s max=%d: aggregation mismatch: probes %d/%d candidates %d/%d",
					label, max, agg.Probes, sumProbes, agg.Candidates, sumCands)
			}
		}
	}

	compare("pre-compact", false)
	dx.Compact()
	compare("post-compact", true)
}

// TestDynamicVeneerSteadyStateZeroAlloc extends the zero-allocation
// acceptance criterion to the unified veneers: after Compact, annulus and
// range queries over the dynamic backend through the pooled scratch
// perform no steady-state heap allocations.
func TestDynamicVeneerSteadyStateZeroAlloc(t *testing.T) {
	rng := xrand.New(51)
	pts := workload.SpherePoints(rng, 1500, testDim)
	dx := newOneShard(xrand.New(52), dynamicFamily(), 16, pts[:1000], DynamicOptions{MemtableThreshold: 200})
	for _, p := range pts[1000:] {
		dx.Insert(p)
	}
	dx.Compact()
	within := withinSim(-1, 2) // accepts everything: exercises the verify path
	ai := NewAnnulusOver(dx, within)
	rr := NewRangeReporterOver(dx, within)
	q := workload.SpherePoints(rng, 1, testDim)[0]

	// Measure through a held querier rather than the pool: under -race,
	// sync.Pool deliberately drops items to shake out races, which makes
	// pooled Get/Put allocate in tests (never in production steady state).
	sq := dx.acquireSQ()
	defer dx.releaseSQ(sq)
	sq.annulusQuery(q, ai.within)
	if allocs := testing.AllocsPerRun(100, func() { sq.annulusQuery(q, ai.within) }); allocs != 0 {
		t.Errorf("dynamic annulus query allocates %.1f/op, want 0", allocs)
	}
	dst, _ := sq.appendRange(nil, q, rr.inRange)
	if allocs := testing.AllocsPerRun(100, func() { dst, _ = sq.appendRange(dst[:0], q, rr.inRange) }); allocs != 0 {
		t.Errorf("dynamic range query allocates %.1f/op, want 0", allocs)
	}
}
