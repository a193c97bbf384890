package index

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dsh/internal/core"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// dynamicFamily is the shared test family: SimHash^4 collides often enough
// that candidate sets are non-trivial at test sizes.
func dynamicFamily() core.Family[[]float64] {
	return core.Power[[]float64](sphere.SimHash(testDim), 4)
}

// newOneShard builds the one-shard ShardedIndex — the mutable index with
// K=1, whose ids and candidate order are a static Index's — that the
// single-store tests drive.
func newOneShard[P any](rng *xrand.Rand, fam core.Family[P], L int, points []P, opts DynamicOptions) *ShardedIndex[P] {
	return NewSharded(rng, fam, L, points, ShardOptions{Shards: 1, Dynamic: opts})
}

// churnDynamic applies a deterministic random interleaving of inserts,
// deletes, flushes and compactions to dx, drawing fresh points from rng.
// It returns the surviving points in global-id order together with the
// global id of each survivor.
func churnDynamic(t *testing.T, rng *xrand.Rand, dx *ShardedIndex[[]float64], ops int) (survivors [][]float64, ids []int) {
	t.Helper()
	var inserted []int
	for i := 0; i < dx.Len(); i++ {
		inserted = append(inserted, i)
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			id := dx.Insert(workload.SpherePoints(rng, 1, testDim)[0])
			inserted = append(inserted, id)
		case r < 0.85:
			if len(inserted) == 0 {
				continue
			}
			victim := inserted[rng.Intn(len(inserted))]
			was := dx.Deleted(victim)
			got := dx.Delete(victim)
			if got == was {
				t.Fatalf("Delete(%d) = %v with Deleted()=%v", victim, got, was)
			}
		case r < 0.95:
			dx.Flush()
		default:
			dx.Compact()
		}
	}
	for _, id := range inserted {
		if !dx.Deleted(id) {
			survivors = append(survivors, dx.Point(id))
			ids = append(ids, id)
		}
	}
	return survivors, ids
}

// TestDynamicMatchesStaticAfterChurn is the differential property test of
// the subsystem: after an arbitrary interleaving of inserts, deletes,
// flushes and compactions, a one-shard index must return exactly the
// candidates of a static Index rebuilt over the surviving points with the
// same rng stream — in the same order, because segments hold disjoint
// ascending global-id ranges, so the per-repetition candidate stream walks
// survivors in global-id order just like the static tables do.
func TestDynamicMatchesStaticAfterChurn(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		fam := dynamicFamily()
		const L = 18
		initial := workload.SpherePoints(xrand.New(seed*100), 120, testDim)

		dx := newOneShard(xrand.New(seed), fam, L, initial, DynamicOptions{MemtableThreshold: 40})
		survivors, ids := churnDynamic(t, xrand.New(seed*777), dx, 500)

		if dx.Len() != len(survivors) {
			t.Fatalf("seed %d: Len() = %d, want %d survivors", seed, dx.Len(), len(survivors))
		}

		// Static rebuild over the survivors with the same rng stream: the
		// L repetition draws are identical, so candidate sets must match
		// under the global-id -> position mapping.
		static := New(xrand.New(seed), fam, L, survivors)
		toStatic := make(map[int]int, len(ids))
		for pos, id := range ids {
			toStatic[id] = pos
		}

		check := func(label string) {
			queries := workload.SpherePoints(xrand.New(seed*999), 24, testDim)
			queries = append(queries, survivors[:min(4, len(survivors))]...)
			for qi, q := range queries {
				want := static.CollectDistinct(q, 0)
				gotGlobal := dx.CollectDistinct(q, 0)
				got := make([]int, len(gotGlobal))
				for i, id := range gotGlobal {
					pos, ok := toStatic[id]
					if !ok {
						t.Fatalf("seed %d %s query %d: candidate %d is not a survivor", seed, label, qi, id)
					}
					got[i] = pos
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d %s query %d: dynamic candidates %v != static %v", seed, label, qi, got, want)
				}
			}
		}

		check("pre-compact")
		dx.Compact()
		if got := dx.Segments(); got > 1 {
			t.Fatalf("seed %d: %d segments after Compact", seed, got)
		}
		if got := dx.MemtableLen(); got != 0 {
			t.Fatalf("seed %d: %d memtable points after Compact", seed, got)
		}
		check("post-compact")
	}
}

func TestDynamicInsertDeleteSemantics(t *testing.T) {
	rng := xrand.New(3)
	pts := workload.SpherePoints(rng, 10, testDim)
	dx := newOneShard(xrand.New(4), dynamicFamily(), 8, pts[:5], DynamicOptions{})
	for i, p := range pts[5:] {
		if id := dx.Insert(p); id != 5+i {
			t.Fatalf("Insert returned id %d, want %d", id, 5+i)
		}
	}
	if dx.Len() != 10 {
		t.Fatalf("Len = %d", dx.Len())
	}
	if !dx.Delete(3) || !dx.Delete(7) {
		t.Fatal("Delete of live ids returned false")
	}
	if dx.Delete(3) {
		t.Fatal("double Delete returned true")
	}
	if dx.Delete(-1) || dx.Delete(10) {
		t.Fatal("out-of-range Delete returned true")
	}
	if dx.Len() != 8 || !dx.Deleted(3) || dx.Deleted(4) {
		t.Fatalf("post-delete state wrong: Len=%d", dx.Len())
	}
	// Deleted points never appear as candidates, before or after Compact.
	assertGone := func() {
		t.Helper()
		for _, q := range pts {
			for _, id := range dx.CollectDistinct(q, 0) {
				if id == 3 || id == 7 {
					t.Fatal("deleted id appeared as candidate")
				}
			}
		}
	}
	assertGone()
	dx.Compact()
	assertGone()
	// A point is still retrievable after deletion of *other* points.
	found := false
	for _, id := range dx.CollectDistinct(pts[4], 0) {
		if id == 4 {
			found = true
		}
	}
	if !found {
		t.Fatal("live point 4 not retrievable after compaction")
	}
}

func TestDynamicQueryBatchMatchesSequential(t *testing.T) {
	rng := xrand.New(5)
	pts := workload.SpherePoints(rng, 300, testDim)
	dx := newOneShard(xrand.New(6), dynamicFamily(), 16, pts[:200], DynamicOptions{MemtableThreshold: 64})
	for _, p := range pts[200:] {
		dx.Insert(p)
	}
	for id := 0; id < 300; id += 7 {
		dx.Delete(id)
	}
	queries := workload.SpherePoints(rng, 48, testDim)
	for _, max := range []int{0, 5} {
		got, per, agg := dx.QueryBatch(queries, BatchOptions{Workers: 8, MaxCandidates: max})
		if agg.Queries != len(queries) {
			t.Fatalf("agg.Queries = %d", agg.Queries)
		}
		for i, q := range queries {
			want := dx.CollectDistinct(q, max)
			if len(want) == 0 {
				want = nil
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("max=%d query %d: batch %v != sequential %v", max, i, got[i], want)
			}
			if per[i].Distinct != len(want) {
				t.Fatalf("max=%d query %d: Distinct=%d want %d", max, i, per[i].Distinct, len(want))
			}
		}
	}
}

// TestDynamicConcurrentQueryCompact drives queriers concurrently with
// inserts, deletes and explicit + background compactions. Run under -race
// (CI does) this is the race-freedom check of the subsystem; the
// assertions here are the invariants that hold under any interleaving:
// ids are in range and each result is duplicate-free.
func TestDynamicConcurrentQueryCompact(t *testing.T) {
	rng := xrand.New(7)
	pts := workload.SpherePoints(rng, 400, testDim)
	dx := newOneShard(xrand.New(8), dynamicFamily(), 12, pts[:100],
		DynamicOptions{MemtableThreshold: 32, MaxSegments: 2, BackgroundCompaction: true})
	defer dx.Close()

	queries := workload.SpherePoints(rng, 16, testDim)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qr := dx.NewQuerier()
			seen := map[int]bool{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _ := qr.CollectDistinct(queries[(i+w)%len(queries)], 0)
				for k := range seen {
					delete(seen, k)
				}
				for _, id := range res {
					if id < 0 {
						t.Errorf("negative candidate id %d", id)
						return
					}
					if seen[id] {
						t.Errorf("duplicate candidate id %d in one result", id)
						return
					}
					seen[id] = true
				}
			}
		}(w)
	}

	mrng := xrand.New(9)
	for op := 0; op < 2000; op++ {
		switch r := mrng.Float64(); {
		case r < 0.6:
			dx.Insert(pts[100+op%300])
		case r < 0.9:
			dx.Delete(mrng.Intn(100 + op%300))
		default:
			dx.Compact()
		}
	}
	dx.Compact()
	close(stop)
	wg.Wait()
}

// TestDynamicSteadyStateZeroAlloc is the acceptance criterion: after a
// churn phase and a Compact, CollectDistinct through a reused
// Querier performs no heap allocations.
func TestDynamicSteadyStateZeroAlloc(t *testing.T) {
	rng := xrand.New(11)
	pts := workload.SpherePoints(rng, 2000, testDim)
	dx := newOneShard(xrand.New(12), dynamicFamily(), 24, pts[:1500], DynamicOptions{MemtableThreshold: 200})
	for _, p := range pts[1500:] {
		dx.Insert(p)
	}
	for id := 0; id < 2000; id += 5 {
		dx.Delete(id)
	}
	dx.Compact()
	q := workload.SpherePoints(rng, 1, testDim)[0]
	qr := dx.NewQuerier()
	qr.CollectDistinct(q, 0) // warm the visited/out buffers
	allocs := testing.AllocsPerRun(100, func() {
		qr.CollectDistinct(q, 0)
	})
	if allocs != 0 {
		t.Errorf("steady-state CollectDistinct allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestDynamicBackgroundCompaction(t *testing.T) {
	rng := xrand.New(13)
	dx := newOneShard[[]float64](xrand.New(14), dynamicFamily(), 8, nil,
		DynamicOptions{MemtableThreshold: 16, MaxSegments: 3, BackgroundCompaction: true})
	defer dx.Close()
	for i := 0; i < 2000; i++ {
		dx.Insert(workload.SpherePoints(rng, 1, testDim)[0])
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if dx.Segments() <= 4 { // merge target plus at most one fresh freeze
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compactor left %d segments", dx.Segments())
		}
		time.Sleep(5 * time.Millisecond)
	}
	dx.Close() // idempotent with the deferred Close
	if dx.Len() != 2000 {
		t.Fatalf("Len = %d after background compaction", dx.Len())
	}
}

func TestDynamicEmptyAndMemtableOnly(t *testing.T) {
	dx := newOneShard[[]float64](xrand.New(15), dynamicFamily(), 6, nil, DynamicOptions{})
	q := workload.SpherePoints(xrand.New(16), 1, testDim)[0]
	if got := dx.CollectDistinct(q, 0); len(got) != 0 {
		t.Fatalf("empty index returned candidates %v", got)
	}
	dx.Compact() // no-op on empty
	id := dx.Insert(q)
	found := false
	for _, c := range dx.CollectDistinct(q, 0) {
		if c == id {
			found = true
		}
	}
	if !found {
		t.Fatal("memtable-resident point not retrievable")
	}
	dx.Delete(id)
	dx.Compact() // drops the only point
	if dx.Segments() != 0 || dx.Len() != 0 {
		t.Fatalf("expected empty index after deleting sole point: segments=%d len=%d", dx.Segments(), dx.Len())
	}
}
