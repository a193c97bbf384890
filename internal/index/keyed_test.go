package index

import (
	"reflect"
	"sort"
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestKeyedInsertSemantics pins the upsert contract of the keyed write
// path on a one-shard index: re-inserting a key tombstones the previous
// version and installs the new one atomically, DeleteKeyed removes the
// newest version, and LookupKey always resolves to the latest live
// version.
func TestKeyedInsertSemantics(t *testing.T) {
	rng := xrand.New(11)
	pts := workload.SpherePoints(rng, 8, testDim)
	dx := NewSharded[[]float64](xrand.New(12), dynamicFamily(), 8, nil, ShardOptions{Shards: 1, Routing: RouteHash})

	id0 := dx.InsertKeyed(42, pts[0])
	if got, ok := dx.LookupKey(42); !ok || got != id0 {
		t.Fatalf("LookupKey(42) = %d, %v; want %d, true", got, ok, id0)
	}
	if dx.Len() != 1 {
		t.Fatalf("Len = %d after first keyed insert", dx.Len())
	}

	// Upsert: same key, new point. One live point, old id tombstoned.
	id1 := dx.InsertKeyed(42, pts[1])
	if id1 == id0 {
		t.Fatalf("upsert reused id %d", id1)
	}
	if dx.Len() != 1 {
		t.Fatalf("Len = %d after upsert, want 1", dx.Len())
	}
	if !dx.Deleted(id0) {
		t.Fatal("upsert left the previous version live")
	}
	if got, ok := dx.LookupKey(42); !ok || got != id1 {
		t.Fatalf("LookupKey(42) = %d, %v after upsert; want %d, true", got, ok, id1)
	}

	// A different key is independent.
	id2 := dx.InsertKeyed(7, pts[2])
	if dx.Len() != 2 {
		t.Fatalf("Len = %d with two keys", dx.Len())
	}

	// DeleteKeyed tombstones the newest version and clears the mapping.
	if !dx.DeleteKeyed(42) {
		t.Fatal("DeleteKeyed(42) = false for a live key")
	}
	if dx.DeleteKeyed(42) {
		t.Fatal("double DeleteKeyed(42) = true")
	}
	if !dx.Deleted(id1) {
		t.Fatal("DeleteKeyed left the newest version live")
	}
	if _, ok := dx.LookupKey(42); ok {
		t.Fatal("LookupKey(42) resolved after DeleteKeyed")
	}

	// Deleting the underlying id directly leaves a stale mapping that
	// LookupKey and DeleteKeyed both treat as absent.
	if !dx.Delete(id2) {
		t.Fatal("Delete of keyed id returned false")
	}
	if _, ok := dx.LookupKey(7); ok {
		t.Fatal("LookupKey(7) resolved after Delete by id")
	}
	if dx.DeleteKeyed(7) {
		t.Fatal("DeleteKeyed(7) = true after Delete by id")
	}

	// Re-inserting a deleted key starts fresh.
	id3 := dx.InsertKeyed(42, pts[3])
	if got, ok := dx.LookupKey(42); !ok || got != id3 {
		t.Fatalf("LookupKey(42) = %d, %v after re-insert; want %d, true", got, ok, id3)
	}
	if dx.Len() != 1 {
		t.Fatalf("Len = %d at the end, want 1", dx.Len())
	}
}

// TestKeyedUpsertMatchesStaticRebuild is the keyed differential
// acceptance test: after re-inserting a small pool of keys many times
// (interleaved with keyed deletes, flushes and GC compactions) on a
// hash-routed sharded index with the leveled policy, every query's
// candidate id set and its Candidates/Distinct/Verified counters must be
// bit-identical to a single-shard — and a static — rebuild containing
// only the latest version of each key, under the same rng stream.
func TestKeyedUpsertMatchesStaticRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		fam := dynamicFamily()
		const L = 16
		const keyPool = 60

		sx := NewSharded[[]float64](xrand.New(seed), fam, L, nil, ShardOptions{
			Shards:  4,
			Routing: RouteHash,
			Dynamic: DynamicOptions{MemtableThreshold: 24, Policy: CompactLeveled},
		})
		mrng := xrand.New(seed * 777)
		latest := make(map[uint64][]float64, keyPool) // key -> live latest version
		for op := 0; op < 600; op++ {
			key := uint64(mrng.Intn(keyPool))
			switch r := mrng.Float64(); {
			case r < 0.70:
				p := workload.SpherePoints(mrng, 1, testDim)[0]
				sx.InsertKeyed(key, p)
				latest[key] = p
			case r < 0.90:
				_, live := latest[key]
				if got := sx.DeleteKeyed(key); got != live {
					t.Fatalf("seed %d: DeleteKeyed(%d) = %v with live=%v", seed, key, got, live)
				}
				delete(latest, key)
			case r < 0.97:
				sx.Flush()
			default:
				sx.Compact() // leveled: bottom-level GC merge on every shard
			}
		}
		if sx.Len() != len(latest) {
			t.Fatalf("seed %d: Len() = %d, want %d live keys", seed, sx.Len(), len(latest))
		}

		within := withinSim(0.2, 0.8)
		shardRR := NewRangeReporterOver[[]float64](sx, within)

		// The reference indexes are rebuilt per check: a GC renumbers each
		// shard's local ids independently, so the survivors' global-id
		// order can change across a compaction — only the (key -> latest
		// point) set is invariant. Ids come from LookupKey, so the mapping
		// below is correct in whatever id space is current.
		check := func(label string) {
			t.Helper()
			type kv struct {
				id int
				p  []float64
			}
			var rows []kv
			for key, p := range latest {
				id, ok := sx.LookupKey(key)
				if !ok {
					t.Fatalf("seed %d %s: live key %d did not resolve", seed, label, key)
				}
				if !reflect.DeepEqual(sx.Point(id), p) {
					t.Fatalf("seed %d %s: key %d resolved to a stale version", seed, label, key)
				}
				rows = append(rows, kv{id, p})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
			survivors := make([][]float64, len(rows))
			toPos := make(map[int]int, len(rows))
			for pos, r := range rows {
				survivors[pos] = r.p
				toPos[r.id] = pos
			}
			mapSorted := func(qi int, global []int) []int {
				t.Helper()
				out := make([]int, len(global))
				for i, id := range global {
					pos, ok := toPos[id]
					if !ok {
						t.Fatalf("seed %d %s query %d: candidate %d is not a live key's id", seed, label, qi, id)
					}
					out[i] = pos
				}
				sort.Ints(out)
				return out
			}

			single := NewSharded(xrand.New(seed), fam, L, survivors,
				ShardOptions{Shards: 1, Dynamic: DynamicOptions{}})
			static := New(xrand.New(seed), fam, L, survivors)
			singleRR := NewRangeReporterOver[[]float64](single, within)
			queries := workload.SpherePoints(xrand.New(seed*999), 20, testDim)
			queries = append(queries, survivors[:min(4, len(survivors))]...)

			for qi, q := range queries {
				got := sx.CollectDistinct(q, 0)
				gotPos := mapSorted(qi, got)
				want := static.CollectDistinct(q, 0)
				sort.Ints(want)
				if (len(gotPos) > 0 || len(want) > 0) && !reflect.DeepEqual(gotPos, want) {
					t.Fatalf("seed %d %s query %d: keyed ids %v != static %v", seed, label, qi, gotPos, want)
				}

				sq := sx.acquireSQ()
				_, gotStats := sq.CollectDistinct(q, 0)
				sx.releaseSQ(sq)
				uq := single.acquireSQ()
				_, wantStats := uq.CollectDistinct(q, 0)
				single.releaseSQ(uq)
				if gotStats.Candidates != wantStats.Candidates || gotStats.Distinct != wantStats.Distinct {
					t.Fatalf("seed %d %s query %d: keyed stats %+v != single-shard %+v", seed, label, qi, gotStats, wantStats)
				}

				gotIDs, gotRS := shardRR.Query(q)
				wantIDs, wantRS := singleRR.Query(q)
				gotRPos := mapSorted(qi, gotIDs)
				wantSorted := append([]int(nil), wantIDs...)
				sort.Ints(wantSorted)
				if (len(gotRPos) > 0 || len(wantSorted) > 0) && !reflect.DeepEqual(gotRPos, wantSorted) {
					t.Fatalf("seed %d %s query %d: keyed range %v != single-shard %v", seed, label, qi, gotRPos, wantSorted)
				}
				if gotRS.Candidates != wantRS.Candidates || gotRS.Distinct != wantRS.Distinct || gotRS.Verified != wantRS.Verified {
					t.Fatalf("seed %d %s query %d: keyed range stats %+v != single-shard %+v", seed, label, qi, gotRS, wantRS)
				}
			}
		}

		check("pre-compact")
		sx.Compact() // leveled: GC merge may renumber ids on every shard
		check("post-compact")
		sx.Close()
	}
}

// TestLeveledGCMatchesStaticRebuild checks the id-renumbering contract of
// the bottom-level GC merge on a one-shard index: after churn and a GC
// compaction, survivors occupy the dense id space 0..S-1 in insertion
// order, so candidate streams equal a static rebuild over the survivors
// directly — no id mapping at all. A mid-churn GC exercises churn
// continuing over a renumbered id space.
func TestLeveledGCMatchesStaticRebuild(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		fam := dynamicFamily()
		const L = 18
		initial := workload.SpherePoints(xrand.New(seed*100), 100, testDim)
		dx := newOneShard(xrand.New(seed), fam, L, initial,
			DynamicOptions{MemtableThreshold: 40, Policy: CompactLeveled})

		mrng := xrand.New(seed * 777)
		live := make([]int, len(initial)) // current ids of live points
		for i := range live {
			live[i] = i
		}
		churn := func(ops int) {
			for op := 0; op < ops; op++ {
				switch r := mrng.Float64(); {
				case r < 0.50:
					live = append(live, dx.Insert(workload.SpherePoints(mrng, 1, testDim)[0]))
				case r < 0.90:
					if len(live) == 0 {
						continue
					}
					i := mrng.Intn(len(live))
					if !dx.Delete(live[i]) {
						t.Fatalf("seed %d: Delete(%d) = false for a live id", seed, live[i])
					}
					live = append(live[:i], live[i+1:]...)
				default:
					dx.Flush()
				}
			}
		}
		gc := func() {
			// The GC renumbers the survivors densely in ascending old-id
			// order; track the same renumbering locally.
			dx.Compact()
			sort.Ints(live)
			for i := range live {
				live[i] = i
			}
		}

		churn(300)
		gc()
		churn(300)
		gc()

		if dx.Len() != len(live) {
			t.Fatalf("seed %d: Len() = %d, want %d", seed, dx.Len(), len(live))
		}
		if got := dx.Segments(); got != 1 {
			t.Fatalf("seed %d: %d segments after GC", seed, got)
		}
		survivors := make([][]float64, len(live))
		for i := range live {
			if dx.Deleted(i) {
				t.Fatalf("seed %d: dense id %d tombstoned after GC", seed, i)
			}
			survivors[i] = dx.Point(i)
		}

		static := New(xrand.New(seed), fam, L, survivors)
		queries := workload.SpherePoints(xrand.New(seed*999), 24, testDim)
		queries = append(queries, survivors[:min(4, len(survivors))]...)
		for qi, q := range queries {
			got := dx.CollectDistinct(q, 0)
			want := static.CollectDistinct(q, 0)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d query %d: post-GC candidates %v != static %v (dense ids must match without mapping)", seed, qi, got, want)
			}
		}
	}
}

// TestLeveledGCBoundsDeadRows is the garbage acceptance test: under a
// 50%-delete churn the leveled policy's step-driven compaction keeps dead
// rows bounded, and the bottom-level GC merge reclaims both table rows and
// tombstone-bitmap storage — dead/live < 10% post-GC, a strictly smaller
// bitmap, and non-zero reclamation counters.
func TestLeveledGCBoundsDeadRows(t *testing.T) {
	dx := newOneShard(xrand.New(21), dynamicFamily(), 8, nil,
		DynamicOptions{MemtableThreshold: 128, Policy: CompactLeveled})
	mrng := xrand.New(22)

	var ids []int
	collected := 0
	for op := 0; op < 6000; op++ {
		if len(ids) > 0 && mrng.Bernoulli(0.5) {
			i := mrng.Intn(len(ids))
			dx.Delete(ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		} else {
			ids = append(ids, dx.Insert(workload.SpherePoints(mrng, 1, testDim)[0]))
		}
		if op%500 == 499 {
			// Drive the policy the way the background compactor would.
			for dx.shards[0].compactLeveledStep() {
			}
			st := dx.GCStats()
			// CollectedRows moves only when a GC merge dropped rows — and
			// then ids were renumbered: survivors keep their ascending-id
			// order, so rebase the tracked ids onto the dense space.
			if st.CollectedRows != collected {
				collected = st.CollectedRows
				sort.Ints(ids)
				for i := range ids {
					ids[i] = i
				}
			}
			// The step trigger fires at dead*growth >= live+1, so the
			// steady-state garbage ratio stays within ~1/growth of live.
			if st.DeadRows*growthFactor > st.LiveRows+1+st.DeadRows {
				t.Fatalf("op %d: leveled steps left %d dead rows against %d live", op, st.DeadRows, st.LiveRows)
			}
		}
	}

	// Build a 50% garbage load, then reclaim it with one explicit GC merge.
	for i := 0; i < len(ids)/2; i++ {
		dx.Delete(ids[i])
	}
	ids = ids[len(ids)/2:]
	before := dx.GCStats()
	if before.DeadRows == 0 || before.BitmapBytes == 0 {
		t.Fatalf("delete burst left no garbage: %+v", before)
	}
	dx.Compact() // explicit bottom-level GC merge
	after := dx.GCStats()

	if after.LiveRows != len(ids) {
		t.Fatalf("post-GC LiveRows = %d, want %d", after.LiveRows, len(ids))
	}
	if after.DeadRows*10 >= after.LiveRows {
		t.Fatalf("post-GC dead/live = %d/%d, want < 10%%", after.DeadRows, after.LiveRows)
	}
	if after.BitmapBytes >= before.BitmapBytes {
		t.Fatalf("bitmap bytes did not shrink: %d -> %d", before.BitmapBytes, after.BitmapBytes)
	}
	if after.CollectedRows <= 0 {
		t.Fatal("CollectedRows = 0 after GC merges")
	}
	if after.ReclaimedBitmapBytes <= 0 {
		t.Fatal("ReclaimedBitmapBytes = 0 after GC merges")
	}
}

// TestLeveledUpperMergeStep checks the non-GC step of the leveled policy:
// with a big bottom segment and a small upper tier, compactUpperStep folds
// only the upper segments — the bottom segment is untouched (same object),
// ids do not move, and every query answer is preserved.
func TestLeveledUpperMergeStep(t *testing.T) {
	initial := workload.SpherePoints(xrand.New(31), 600, testDim)
	dx := newOneShard(xrand.New(32), dynamicFamily(), 10, initial,
		DynamicOptions{MemtableThreshold: 1 << 20, Policy: CompactLeveled})
	mrng := xrand.New(33)
	for b := 0; b < 3; b++ {
		for i := 0; i < 20; i++ {
			dx.Insert(workload.SpherePoints(mrng, 1, testDim)[0])
		}
		dx.Flush()
	}
	if got := dx.Segments(); got != 4 {
		t.Fatalf("setup produced %d segments, want 4", got)
	}
	bottom := dx.shards[0].segments[0]

	queries := workload.SpherePoints(xrand.New(34), 16, testDim)
	before := make([][]int, len(queries))
	for i, q := range queries {
		before[i] = dx.CollectDistinct(q, 0)
	}

	if !dx.shards[0].compactUpperStep() {
		t.Fatal("compactUpperStep = false with three upper segments")
	}
	if got := dx.Segments(); got != 2 {
		t.Fatalf("upper merge left %d segments, want 2", got)
	}
	if dx.shards[0].segments[0] != bottom {
		t.Fatal("upper merge rewrote the bottom segment")
	}
	for i, q := range queries {
		if got := dx.CollectDistinct(q, 0); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("query %d diverged after upper merge: %v != %v", i, got, before[i])
		}
	}
	// With nothing left to fold and no garbage pressure, the policy rests.
	if dx.shards[0].compactUpperStep() {
		t.Fatal("compactUpperStep reported work with a single upper segment")
	}
}

// TestLeveledSteadyStateZeroAlloc pins the allocation contract on the new
// paths: after a GC compaction, warmed queriers on a leveled one-shard
// index and on a hash-routed leveled four-shard index perform no heap
// allocations per query.
func TestLeveledSteadyStateZeroAlloc(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(41), 600, testDim)
	dx := newOneShard(xrand.New(42), dynamicFamily(), 10, pts[:300],
		DynamicOptions{MemtableThreshold: 64, Policy: CompactLeveled})
	for i, p := range pts[300:500] {
		id := dx.Insert(p)
		if i%3 == 0 {
			dx.Delete(id)
		}
	}
	dx.Compact()
	q := pts[550]
	qr := dx.NewQuerier()
	qr.CollectDistinct(q, 0)
	if allocs := testing.AllocsPerRun(100, func() { qr.CollectDistinct(q, 0) }); allocs != 0 {
		t.Errorf("leveled one-shard steady-state query allocates %.1f/op", allocs)
	}

	sx := NewSharded[[]float64](xrand.New(42), dynamicFamily(), 10, nil, ShardOptions{
		Shards:  4,
		Routing: RouteHash,
		Dynamic: DynamicOptions{MemtableThreshold: 64, Policy: CompactLeveled},
	})
	for i, p := range pts[:400] {
		sx.InsertKeyed(uint64(i%300), p)
	}
	for i := 0; i < 100; i += 2 {
		sx.DeleteKeyed(uint64(i))
	}
	sx.Compact()
	sq := sx.NewQuerier()
	sq.CollectDistinct(q, 0)
	if allocs := testing.AllocsPerRun(100, func() { sq.CollectDistinct(q, 0) }); allocs != 0 {
		t.Errorf("hash-routed ShardedIndex steady-state query allocates %.1f/op", allocs)
	}
}

// TestKeyedGuardMessages locks in the misuse-panic messages of the keyed
// write path.
func TestKeyedGuardMessages(t *testing.T) {
	fam := dynamicFamily()
	p := workload.SpherePoints(xrand.New(51), 1, testDim)[0]

	hashed := NewSharded[[]float64](xrand.New(52), fam, 4, nil,
		ShardOptions{Shards: 2, Routing: RouteHash})
	mustPanicMessage(t, "index: Insert on hash-routed ShardedIndex (use InsertKeyed)",
		func() { hashed.Insert(p) })
	hashed.InsertKeyed(1, p) // sanity: the matching routing works
	hashed.Close()
	mustPanicMessage(t, "index: InsertKeyed on closed ShardedIndex",
		func() { hashed.InsertKeyed(2, p) })

	rr := NewSharded[[]float64](xrand.New(53), fam, 4, nil, ShardOptions{Shards: 2})
	mustPanicMessage(t, "index: InsertKeyed on round-robin ShardedIndex (set ShardOptions.Routing to RouteHash)",
		func() { rr.InsertKeyed(1, p) })
	rr.Insert(p)
	rr.Close()
}
