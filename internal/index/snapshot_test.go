package index

import (
	"reflect"
	"sync"
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestSnapshotIsolationUnderConcurrentChurn is the snapshot-isolation
// acceptance test, meant to run under -race (CI does): a scan over a
// Snapshot must observe the identical live-id set and identical query
// results before, during and after concurrent Insert, Delete, Flush and
// Compact traffic on the live index.
func TestSnapshotIsolationUnderConcurrentChurn(t *testing.T) {
	rng := xrand.New(21)
	pts := workload.SpherePoints(rng, 900, testDim)
	dx := newOneShard(xrand.New(22), dynamicFamily(), 12, pts[:300],
		DynamicOptions{MemtableThreshold: 64})
	for _, p := range pts[300:450] {
		dx.Insert(p) // leave a non-empty memtable for Snapshot to freeze
	}
	for id := 0; id < 450; id += 9 {
		dx.Delete(id)
	}

	queries := workload.SpherePoints(rng, 12, testDim)
	snap := dx.Snapshot()
	wantLen := snap.Len()
	wantIDs := snap.AppendLiveIDs(nil)
	if len(wantIDs) != wantLen {
		t.Fatalf("AppendLiveIDs returned %d ids, Len() = %d", len(wantIDs), wantLen)
	}
	wantRes := make([][]int, len(queries))
	for i, q := range queries {
		wantRes[i] = snap.CollectDistinct(q, 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qr := snap.NewQuerier()
			var ids []int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (i + w) % len(queries)
				res, _ := qr.CollectDistinct(queries[qi], 0)
				if len(res) != len(wantRes[qi]) || (len(res) > 0 && !reflect.DeepEqual(res, wantRes[qi])) {
					t.Errorf("snapshot query %d drifted during churn: %v != %v", qi, res, wantRes[qi])
					return
				}
				if i%16 == 0 {
					ids = snap.AppendLiveIDs(ids[:0])
					if !reflect.DeepEqual(ids, wantIDs) {
						t.Errorf("snapshot live-id set drifted during churn: %d ids != %d", len(ids), len(wantIDs))
						return
					}
				}
			}
		}(w)
	}

	// Churn the live index hard while the scanners run.
	mrng := xrand.New(23)
	for op, p := range pts[450:] {
		dx.Insert(p)
		if mrng.Bernoulli(0.4) {
			dx.Delete(mrng.Intn(450 + op))
		}
		switch {
		case op%97 == 0:
			dx.Compact()
		case op%41 == 0:
			dx.Flush()
		}
	}
	dx.Compact()
	close(stop)
	wg.Wait()

	// After the churn: the snapshot still answers from the pinned state...
	if snap.Len() != wantLen {
		t.Fatalf("snapshot Len drifted: %d != %d", snap.Len(), wantLen)
	}
	if got := snap.AppendLiveIDs(nil); !reflect.DeepEqual(got, wantIDs) {
		t.Fatalf("snapshot live-id set drifted after churn")
	}
	for i, q := range queries {
		if got := snap.CollectDistinct(q, 0); !reflect.DeepEqual(got, wantRes[i]) && (len(got) > 0 || len(wantRes[i]) > 0) {
			t.Fatalf("snapshot query %d drifted after churn: %v != %v", i, got, wantRes[i])
		}
	}
	// ...and staleness is detectable through the epochs.
	if dx.Epoch() == snap.Epoch() {
		t.Fatal("live epoch did not advance past the snapshot's")
	}
	if fresh := dx.Snapshot(); fresh.Epoch() != dx.Epoch() {
		t.Fatalf("fresh snapshot epoch %d != live epoch %d", fresh.Epoch(), dx.Epoch())
	}
}

// TestSnapshotMatchesStaticRebuild pins snapshot serving to the
// differential contract of the package: every veneer over a Snapshot
// returns exactly what the same veneer returns over a static Index
// rebuilt from the snapshot's live points with the same rng stream —
// same ids (mapped through global ids), same work counters — regardless
// of how the live index is mutated after the snapshot was taken.
func TestSnapshotMatchesStaticRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fam := dynamicFamily()
		const L = 16
		initial := workload.SpherePoints(xrand.New(seed*100), 120, testDim)
		dx := newOneShard(xrand.New(seed), fam, L, initial, DynamicOptions{MemtableThreshold: 40})
		churnDynamic(t, xrand.New(seed*777), dx, 300)

		snap := dx.Snapshot()
		ids := snap.AppendLiveIDs(nil)
		survivors := make([][]float64, len(ids))
		toStatic := make(map[int]int, len(ids))
		for pos, id := range ids {
			survivors[pos] = snap.Point(id)
			toStatic[id] = pos
		}

		// Mutate the live index after the snapshot: none of this may be
		// visible below.
		mrng := xrand.New(seed * 31)
		for i := 0; i < 100; i++ {
			dx.Insert(workload.SpherePoints(mrng, 1, testDim)[0])
			dx.Delete(mrng.Intn(len(ids)))
		}
		dx.Compact()

		static := New(xrand.New(seed), fam, L, survivors)
		within := withinSim(0.2, 0.8)
		staticAI := NewAnnulus[[]float64](xrand.New(seed), fam, L, survivors, within)
		snapAI := NewAnnulusOver[[]float64](snap, within)
		staticRR := NewRangeReporter[[]float64](xrand.New(seed), fam, L, survivors, within)
		snapRR := NewRangeReporterOver[[]float64](snap, within)

		queries := workload.SpherePoints(xrand.New(seed*999), 24, testDim)
		for qi, q := range queries {
			want := static.CollectDistinct(q, 0)
			got := snap.CollectDistinct(q, 0)
			mapped := make([]int, len(got))
			for i, id := range got {
				pos, ok := toStatic[id]
				if !ok {
					t.Fatalf("seed %d query %d: snapshot candidate %d not pinned", seed, qi, id)
				}
				mapped[i] = pos
			}
			if (len(mapped) > 0 || len(want) > 0) && !reflect.DeepEqual(mapped, want) {
				t.Fatalf("seed %d query %d: snapshot candidates %v != static %v", seed, qi, mapped, want)
			}

			gotID, gotStats := snapAI.Query(q)
			wantID, wantStats := staticAI.Query(q)
			mappedID := -1
			if gotID >= 0 {
				mappedID = toStatic[gotID]
			}
			if mappedID != wantID || gotStats.Candidates != wantStats.Candidates || gotStats.Verified != wantStats.Verified {
				t.Fatalf("seed %d query %d: snapshot annulus (%d,%+v) != static (%d,%+v)",
					seed, qi, mappedID, gotStats, wantID, wantStats)
			}

			gotIDs, gotRS := snapRR.Query(q)
			wantIDs, wantRS := staticRR.Query(q)
			mappedIDs := make([]int, len(gotIDs))
			for i, id := range gotIDs {
				mappedIDs[i] = toStatic[id]
			}
			if (len(mappedIDs) > 0 || len(wantIDs) > 0) && !reflect.DeepEqual(mappedIDs, wantIDs) {
				t.Fatalf("seed %d query %d: snapshot range %v != static %v", seed, qi, mappedIDs, wantIDs)
			}
			if gotRS.Candidates != wantRS.Candidates || gotRS.Distinct != wantRS.Distinct || gotRS.Verified != wantRS.Verified {
				t.Fatalf("seed %d query %d: snapshot range stats %+v != static %+v", seed, qi, gotRS, wantRS)
			}
		}

		// The batch engine over the snapshot agrees with its sequential path.
		batch, per, _ := snap.QueryBatch(queries, BatchOptions{Workers: 4})
		for qi, q := range queries {
			want := snap.CollectDistinct(q, 0)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(batch[qi], want) {
				t.Fatalf("seed %d query %d: snapshot batch %v != sequential %v", seed, qi, batch[qi], want)
			}
			if per[qi].Distinct != len(want) {
				t.Fatalf("seed %d query %d: batch Distinct=%d want %d", seed, qi, per[qi].Distinct, len(want))
			}
		}
	}
}

// TestSnapshotSteadyStateZeroAlloc extends the zero-allocation acceptance
// criterion to snapshots: queries through a warmed Querier over a
// compacted index's snapshot perform no heap allocations.
func TestSnapshotSteadyStateZeroAlloc(t *testing.T) {
	rng := xrand.New(61)
	pts := workload.SpherePoints(rng, 1500, testDim)
	dx := newOneShard(xrand.New(62), dynamicFamily(), 16, pts[:1000], DynamicOptions{MemtableThreshold: 200})
	for _, p := range pts[1000:] {
		dx.Insert(p)
	}
	dx.Compact()
	snap := dx.Snapshot()
	q := workload.SpherePoints(rng, 1, testDim)[0]
	qr := snap.NewQuerier()
	qr.CollectDistinct(q, 0) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() { qr.CollectDistinct(q, 0) }); allocs != 0 {
		t.Errorf("steady-state snapshot CollectDistinct allocates %.1f/op, want 0", allocs)
	}
	var ids []int
	ids = snap.AppendLiveIDs(ids[:0])
	if allocs := testing.AllocsPerRun(100, func() { ids = snap.AppendLiveIDs(ids[:0]) }); allocs != 0 {
		t.Errorf("steady-state AppendLiveIDs allocates %.1f/op, want 0", allocs)
	}
}

// TestSnapshotInlineFreezeLayerOrder pins the layer order under mixed
// freezes: Snapshots taken mid-stream freeze partial memtables between
// threshold freezes, and the segments must still sit in ascending id
// order so candidate order stays the static order.
func TestSnapshotInlineFreezeLayerOrder(t *testing.T) {
	fam := dynamicFamily()
	const L = 12
	seedPts := workload.SpherePoints(xrand.New(71), 64, testDim)
	dx := newOneShard(xrand.New(72), fam, L, seedPts, DynamicOptions{MemtableThreshold: 16})

	rng := xrand.New(73)
	var snaps []*ShardedSnapshot[[]float64]
	for i := 0; i < 200; i++ {
		dx.Insert(workload.SpherePoints(rng, 1, testDim)[0])
		if i%13 == 0 {
			snaps = append(snaps, dx.Snapshot()) // freeze mid-stream
		}
	}
	dx.Flush()

	var survivors [][]float64
	for id := 0; id < 264; id++ {
		survivors = append(survivors, dx.Point(id))
	}
	static := New(xrand.New(72), fam, L, survivors)
	queries := workload.SpherePoints(xrand.New(74), 16, testDim)
	for qi, q := range queries {
		want := static.CollectDistinct(q, 0)
		got := dx.CollectDistinct(q, 0)
		if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: candidate order diverged from static after snapshot freezes: %v != %v", qi, got, want)
		}
	}
	for _, s := range snaps {
		s.Release()
	}
}
