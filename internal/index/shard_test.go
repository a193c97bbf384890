package index

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// churnSharded applies a deterministic interleaving of inserts, deletes,
// flushes and compactions to sx, returning the surviving points in
// ascending global-id order together with each survivor's global id.
func churnSharded(t *testing.T, rng *xrand.Rand, sx *ShardedIndex[[]float64], initial, ops int) (survivors [][]float64, ids []int) {
	t.Helper()
	inserted := make([]int, 0, initial+ops)
	for i := 0; i < initial; i++ {
		inserted = append(inserted, i)
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			inserted = append(inserted, sx.Insert(workload.SpherePoints(rng, 1, testDim)[0]))
		case r < 0.85:
			if len(inserted) == 0 {
				continue
			}
			victim := inserted[rng.Intn(len(inserted))]
			was := sx.Deleted(victim)
			if got := sx.Delete(victim); got == was {
				t.Fatalf("Delete(%d) = %v with Deleted()=%v", victim, got, was)
			}
		case r < 0.95:
			sx.Flush()
		default:
			sx.Compact()
		}
	}
	sort.Ints(inserted)
	for _, id := range inserted {
		if !sx.Deleted(id) {
			survivors = append(survivors, sx.Point(id))
			ids = append(ids, id)
		}
	}
	return survivors, ids
}

// TestShardedMatchesSingleShardRebuild is the sharded differential
// acceptance test: after an arbitrary interleaving of inserts, deletes,
// flushes and compactions on a 4-shard index, every query's candidate id
// set and its Candidates/Distinct/Verified counters must be bit-identical
// to a single-shard rebuild — and a static rebuild — over the same
// survivors with the same rng stream. Only the candidate order
// (shard-major versus id-major) and the Probes layering counter may
// differ.
func TestShardedMatchesSingleShardRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fam := dynamicFamily()
		const L = 16
		initial := workload.SpherePoints(xrand.New(seed*100), 121, testDim)

		sx := NewSharded(xrand.New(seed), fam, L, initial,
			ShardOptions{Shards: 4, Dynamic: DynamicOptions{MemtableThreshold: 24}})
		survivors, ids := churnSharded(t, xrand.New(seed*777), sx, len(initial), 400)
		if sx.Len() != len(survivors) {
			t.Fatalf("seed %d: Len() = %d, want %d survivors", seed, sx.Len(), len(survivors))
		}

		// Single-shard rebuild over the survivors with the same rng
		// stream: NewSharded consumes rng exactly like New, and with one
		// shard global ids equal positions 0..n-1.
		single := NewSharded(xrand.New(seed), fam, L, survivors,
			ShardOptions{Shards: 1, Dynamic: DynamicOptions{}})
		static := New(xrand.New(seed), fam, L, survivors)
		toPos := make(map[int]int, len(ids))
		for pos, id := range ids {
			toPos[id] = pos
		}
		mapSorted := func(label string, qi int, global []int) []int {
			t.Helper()
			out := make([]int, len(global))
			for i, id := range global {
				pos, ok := toPos[id]
				if !ok {
					t.Fatalf("seed %d %s query %d: candidate %d is not a survivor", seed, label, qi, id)
				}
				out[i] = pos
			}
			sort.Ints(out)
			return out
		}

		queries := workload.SpherePoints(xrand.New(seed*999), 24, testDim)
		queries = append(queries, survivors[:min(4, len(survivors))]...)

		within := withinSim(0.2, 0.8)
		shardRR := NewRangeReporterOver[[]float64](sx, within)
		singleRR := NewRangeReporterOver[[]float64](single, within)
		shardAI := NewAnnulusOver[[]float64](sx, within)

		check := func(label string) {
			t.Helper()
			for qi, q := range queries {
				for _, max := range []int{0, 5} {
					sq := sx.acquireSQ()
					got, gotStats := sq.CollectDistinct(q, max)
					gotPos := mapSorted(label, qi, got)
					sx.releaseSQ(sq)
					uq := single.acquireSQ()
					want, wantStats := uq.CollectDistinct(q, max)
					wantPos := append([]int(nil), want...)
					single.releaseSQ(uq)
					sort.Ints(wantPos)
					// Under truncation the first-max distinct ids depend
					// on candidate order (shard-major versus id-major),
					// so the id-set comparison applies to the full scan;
					// the work counters must be bit-identical either way
					// (the cutoff repetition is order-independent).
					if max == 0 && (len(gotPos) > 0 || len(wantPos) > 0) && !reflect.DeepEqual(gotPos, wantPos) {
						t.Fatalf("seed %d %s query %d: sharded ids %v != single-shard %v", seed, label, qi, gotPos, wantPos)
					}
					if gotStats.Candidates != wantStats.Candidates || gotStats.Distinct != wantStats.Distinct {
						t.Fatalf("seed %d %s query %d max=%d: sharded stats %+v != single-shard %+v", seed, label, qi, max, gotStats, wantStats)
					}
					// And against the fully static rebuild.
					if max == 0 {
						staticIDs := static.CollectDistinct(q, 0)
						sort.Ints(staticIDs)
						if (len(gotPos) > 0 || len(staticIDs) > 0) && !reflect.DeepEqual(gotPos, staticIDs) {
							t.Fatalf("seed %d %s query %d: sharded ids %v != static %v", seed, label, qi, gotPos, staticIDs)
						}
					}
				}

				gotIDs, gotRS := shardRR.Query(q)
				wantIDs, wantRS := singleRR.Query(q)
				gotPos := mapSorted(label, qi, gotIDs)
				wantSorted := append([]int(nil), wantIDs...)
				sort.Ints(wantSorted)
				if (len(gotPos) > 0 || len(wantSorted) > 0) && !reflect.DeepEqual(gotPos, wantSorted) {
					t.Fatalf("seed %d %s query %d: sharded range %v != single-shard %v", seed, label, qi, gotPos, wantSorted)
				}
				if gotRS.Candidates != wantRS.Candidates || gotRS.Distinct != wantRS.Distinct || gotRS.Verified != wantRS.Verified {
					t.Fatalf("seed %d %s query %d: sharded range stats %+v != single-shard %+v", seed, label, qi, gotRS, wantRS)
				}

				// The annulus veneer scans in shard-major order, so pin
				// semantics rather than the exact hit: any hit must be a
				// live survivor satisfying the predicate.
				if hit, _ := shardAI.Query(q); hit >= 0 {
					if _, ok := toPos[hit]; !ok {
						t.Fatalf("seed %d %s query %d: annulus hit %d is not a survivor", seed, label, qi, hit)
					}
					if !within(q, sx.Point(hit)) {
						t.Fatalf("seed %d %s query %d: annulus hit %d fails the predicate", seed, label, qi, hit)
					}
				}
			}
		}

		check("pre-compact")
		sx.Compact()
		for s, sh := range sx.shards {
			sh.mu.RLock()
			got := len(sh.segments)
			sh.mu.RUnlock()
			if got > 1 {
				t.Fatalf("seed %d: shard %d has %d segments after Compact", seed, s, got)
			}
		}
		check("post-compact")

		// The sharded snapshot pins the same state as the live index at
		// quiescence.
		snap := sx.Snapshot()
		if snap.Len() != sx.Len() {
			t.Fatalf("seed %d: snapshot Len %d != live %d", seed, snap.Len(), sx.Len())
		}
		if got := snap.AppendLiveIDs(nil); !reflect.DeepEqual(got, ids) {
			t.Fatalf("seed %d: snapshot live ids != survivor ids", seed)
		}
		for qi, q := range queries {
			a := sx.CollectDistinct(q, 0)
			b := snap.CollectDistinct(q, 0)
			if (len(a) > 0 || len(b) > 0) && !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d query %d: snapshot candidates diverge from live at quiescence", seed, qi)
			}
		}
		snap.Release()
	}
}

// TestShardedQueryBatchMatchesSequential pins the batch engine over the
// sharded backend to its sequential path, including merged per-query
// stats.
func TestShardedQueryBatchMatchesSequential(t *testing.T) {
	rng := xrand.New(5)
	pts := workload.SpherePoints(rng, 300, testDim)
	sx := NewSharded(xrand.New(6), dynamicFamily(), 16, pts[:200],
		ShardOptions{Shards: 3, Dynamic: DynamicOptions{MemtableThreshold: 32}})
	for _, p := range pts[200:] {
		sx.Insert(p)
	}
	for id := 0; id < 300; id += 7 {
		sx.Delete(id)
	}
	queries := workload.SpherePoints(rng, 48, testDim)
	for _, max := range []int{0, 5} {
		got, per, agg := sx.QueryBatch(queries, BatchOptions{Workers: 8, MaxCandidates: max})
		if agg.Queries != len(queries) {
			t.Fatalf("agg.Queries = %d", agg.Queries)
		}
		for i, q := range queries {
			want := sx.CollectDistinct(q, max)
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

// TestShardedInsertIDsSingleWriter pins the global-id arithmetic: initial
// points get ids 0..n-1 (point i on shard i mod K), and a single writer's
// round-robin inserts continue densely from n.
func TestShardedInsertIDsSingleWriter(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(1), 40, testDim)
	sx := NewSharded(xrand.New(2), dynamicFamily(), 8, pts[:10], ShardOptions{Shards: 3})
	for i, p := range pts[10:] {
		if id := sx.Insert(p); id != 10+i {
			t.Fatalf("Insert %d returned id %d, want %d", i, id, 10+i)
		}
	}
	for id, p := range pts {
		if !reflect.DeepEqual(sx.Point(id), p) {
			t.Fatalf("Point(%d) does not round-trip", id)
		}
	}
	if sx.Len() != 40 || sx.Shards() != 3 || sx.L() != 8 {
		t.Fatalf("Len/Shards/L = %d/%d/%d", sx.Len(), sx.Shards(), sx.L())
	}
	if sx.Delete(-1) || sx.Delete(40) {
		t.Fatal("out-of-range Delete returned true")
	}
	if sx.Deleted(-1) || sx.Deleted(40) {
		t.Fatal("out-of-range Deleted returned true")
	}
	if !sx.Delete(17) || sx.Delete(17) || !sx.Deleted(17) {
		t.Fatal("Delete/Deleted semantics wrong")
	}
}

// TestShardedConcurrentWriters is the multi-writer race test: W writers
// insert and delete concurrently with queriers, snapshot scans and
// explicit compactions. Invariants under any interleaving: every Insert
// returns a unique id, every returned id round-trips through Point, query
// results are duplicate-free, and the final live count balances inserts
// against successful deletes.
func TestShardedConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 300
	rng := xrand.New(7)
	pts := workload.SpherePoints(rng, 100+writers*perWriter, testDim)
	sx := NewSharded(xrand.New(8), dynamicFamily(), 12, pts[:100],
		ShardOptions{Shards: 4, Dynamic: DynamicOptions{
			MemtableThreshold: 32, MaxSegments: 2, BackgroundCompaction: true}})
	defer sx.Close()

	queries := workload.SpherePoints(rng, 16, testDim)
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	for w := 0; w < 3; w++ {
		qwg.Add(1)
		go func(w int) {
			defer qwg.Done()
			qr := sx.NewQuerier()
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
					if id < 0 || seen[id] {
						t.Errorf("bad candidate id %d (negative or duplicated)", id)
						return
					}
					seen[id] = true
				}
				if i%50 == 0 {
					snap := sx.Snapshot()
					a := snap.AppendLiveIDs(nil)
					b := snap.AppendLiveIDs(nil)
					if !reflect.DeepEqual(a, b) {
						t.Error("snapshot scan not stable")
						snap.Release()
						return
					}
					snap.Release()
				}
			}
		}(w)
	}

	idCh := make(chan []int, writers)
	delCh := make(chan int, writers)
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			mrng := xrand.New(uint64(100 + w))
			mine := make([]int, 0, perWriter)
			deleted := 0
			for i := 0; i < perWriter; i++ {
				id := sx.Insert(pts[100+w*perWriter+i])
				mine = append(mine, id)
				if mrng.Bernoulli(0.25) {
					if sx.Delete(mine[mrng.Intn(len(mine))]) {
						deleted++
					}
				}
				if i%101 == 0 {
					sx.shards[mrng.Intn(sx.Shards())].Compact()
				}
			}
			idCh <- mine
			delCh <- deleted
		}(w)
	}
	wwg.Wait()
	close(stop)
	qwg.Wait()
	close(idCh)
	close(delCh)

	seen := map[int]bool{}
	all := make([]int, 0, writers*perWriter)
	for ids := range idCh {
		for _, id := range ids {
			if seen[id] {
				t.Fatalf("duplicate global id %d across writers", id)
			}
			seen[id] = true
			all = append(all, id)
		}
	}
	deleted := 0
	for d := range delCh {
		deleted += d
	}
	if want := 100 + writers*perWriter - deleted; sx.Len() != want {
		t.Fatalf("Len = %d, want %d (inserts minus deletes)", sx.Len(), want)
	}
	sx.Compact()
	live := 0
	for _, id := range all {
		if !sx.Deleted(id) {
			sx.Point(id) // must not panic
			live++
		}
	}
	if live+deleted != writers*perWriter {
		t.Fatalf("live %d + deleted %d != inserted %d", live, deleted, writers*perWriter)
	}
}

// TestShardedSteadyStateZeroAlloc extends the zero-allocation criterion
// to the sharded backend: after Compact, CollectDistinct through a warmed
// Querier performs no heap allocations even though it probes every
// shard.
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	rng := xrand.New(11)
	pts := workload.SpherePoints(rng, 2000, testDim)
	sx := NewSharded(xrand.New(12), dynamicFamily(), 24, pts[:1500],
		ShardOptions{Shards: 4, Dynamic: DynamicOptions{MemtableThreshold: 200}})
	for _, p := range pts[1500:] {
		sx.Insert(p)
	}
	for id := 0; id < 2000; id += 5 {
		sx.Delete(id)
	}
	sx.Compact()
	q := workload.SpherePoints(rng, 1, testDim)[0]
	qr := sx.NewQuerier()
	qr.CollectDistinct(q, 0) // warm the visited/out buffers
	if allocs := testing.AllocsPerRun(100, func() { qr.CollectDistinct(q, 0) }); allocs != 0 {
		t.Errorf("steady-state sharded CollectDistinct allocates %.1f/op, want 0", allocs)
	}
}

// TestShardedGuardMessages mirrors TestConstructorValidationMessages for
// the sharded surface: constructor misuse, use after Close, and use after
// Release all panic with clear, pinned messages.
func TestShardedGuardMessages(t *testing.T) {
	fam := dynamicFamily()
	rng := func() *xrand.Rand { return xrand.New(1) }
	pts := workload.SpherePoints(xrand.New(2), 8, testDim)

	mustPanicMessage(t, "index: shard count must be positive", func() {
		NewSharded[[]float64](rng(), fam, 4, nil, ShardOptions{})
	})
	mustPanicMessage(t, "index: shard count must be positive", func() {
		NewSharded[[]float64](rng(), fam, 4, nil, ShardOptions{Shards: -2})
	})
	mustPanicMessage(t, "index: repetitions must be positive", func() {
		NewSharded[[]float64](rng(), fam, 0, nil, ShardOptions{Shards: 2})
	})
	mustPanicMessage(t, "index: family must be non-nil", func() {
		NewSharded[[]float64](rng(), nil, 4, nil, ShardOptions{Shards: 2})
	})
	mustPanicMessage(t, "index: source must be non-nil", func() {
		NewAnnulusOver[[]float64](nil, withinSim(0, 1))
	})
	mustPanicMessage(t, "index: source must be non-nil", func() {
		NewRangeReporterOver[[]float64](nil, withinSim(0, 1))
	})

	sx := NewSharded(rng(), fam, 4, pts, ShardOptions{Shards: 2})
	snap := sx.Snapshot()
	sx.Close()
	sx.Close() // idempotent
	mustPanicMessage(t, "index: Insert on closed ShardedIndex", func() { sx.Insert(pts[0]) })
	mustPanicMessage(t, "index: Snapshot of closed ShardedIndex", func() { sx.Snapshot() })
	if sx.Len() != len(pts) {
		t.Fatal("queries should remain valid after Close")
	}

	snap.Release()
	snap.Release() // idempotent
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.CollectDistinct(pts[0], 0) })
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.AppendLiveIDs(nil) })
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.Deleted(0) })
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.Point(0) })
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.QueryBatch(pts, BatchOptions{Workers: 4}) })
	mustPanicMessage(t, "index: use of released Snapshot", func() { snap.QueryBatchSigned(pts, BatchOptions{Workers: 4}) })
	mustPanicMessage(t, "index: negative point id", func() { sx.Point(-1) })
}
