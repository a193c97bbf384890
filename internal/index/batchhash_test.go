package index

import (
	"reflect"
	"testing"

	"dsh/internal/core"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// statsEqualIgnoringLatency compares two QueryStats counter-by-counter.
// The batch pre-hash moves hashing out of the per-query critical section,
// so Latency is the one field allowed to differ.
func statsEqualIgnoringLatency(a, b QueryStats) bool {
	a.Latency, b.Latency = 0, 0
	return a == b
}

// blockHashFamilies covers every per-repetition path blockHash can take:
// the core.BatchHasher fast path (fast cross-polytope, and Power of
// SimHash, whose fused hasher is row-packed), the HashNeg pre-negated path
// (the anti families' negatedHasher is not a BatchHasher), and the scalar
// g.Hash fallback (an explicit Concat's hashers are combinedHashers).
var blockHashFamilies = map[string]core.Family[[]float64]{
	"fastcp":         sphere.FastCrossPolytope(testDim),
	"fastanticp":     sphere.FastAntiCrossPolytope(testDim),
	"power-simhash":  core.Power[[]float64](sphere.SimHash(testDim), 4),
	"concat-simhash": core.Concat(sphere.SimHash(testDim), sphere.SimHash(testDim), sphere.SimHash(testDim), sphere.SimHash(testDim)),
}

// TestBatchHashIdenticalToScalar is the engine-level differential test:
// for every hashing path, QueryBatch with the repetition-blocked pre-hash
// (the default) must return exactly the ids and stats of QueryBatch with
// NoBlockHash and of sequential CollectDistinct calls.
func TestBatchHashIdenticalToScalar(t *testing.T) {
	for name, fam := range blockHashFamilies {
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(51)
			pts := workload.SpherePoints(rng, 400, testDim)
			ix := New(rng, fam, 16, pts)
			queries := workload.SpherePoints(rng, 40, testDim)

			pre, prePer, _ := ix.QueryBatch(queries, BatchOptions{Workers: 4})
			scalar, scalarPer, _ := ix.QueryBatch(queries, BatchOptions{Workers: 4, NoBlockHash: true})
			if !reflect.DeepEqual(pre, scalar) {
				t.Fatal("pre-hashed batch results differ from NoBlockHash results")
			}
			for i, q := range queries {
				if !statsEqualIgnoringLatency(prePer[i], scalarPer[i]) {
					t.Fatalf("query %d: pre-hash stats %+v != scalar stats %+v", i, prePer[i], scalarPer[i])
				}
				want := ix.CollectDistinct(q, 0)
				if len(want) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(pre[i], want) {
					t.Fatalf("query %d: batch %v != sequential %v", i, pre[i], want)
				}
			}
		})
	}
}

// TestBatchHashKeyBlockMatchesGKeys unit-tests blockHash itself: every
// entry of the rep-major key block must equal what the scalar query path
// computes for that (repetition, query) cell, for both the plain and the
// negated-query families.
func TestBatchHashKeyBlockMatchesGKeys(t *testing.T) {
	for _, name := range []string{"fastcp", "fastanticp", "power-simhash", "concat-simhash"} {
		fam := blockHashFamilies[name]
		t.Run(name, func(t *testing.T) {
			rng := xrand.New(52)
			pts := workload.SpherePoints(rng, 50, testDim)
			ix := New(rng, fam, 12, pts)
			queries := workload.SpherePoints(rng, 16, testDim)

			bk := ix.blockHash(queries, 4)
			if bk == nil {
				t.Fatal("blockHash skipped a batch above the minimum size")
			}
			defer bk.release()
			sq := ix.acquireSQ()
			defer ix.releaseSQ(sq)
			for i := range ix.pairs {
				for j, q := range queries {
					sq.negOK = false // fresh query, like the scalar path
					if got, want := bk.keys[i*bk.q+j], sq.gKey(i, q); got != want {
						t.Fatalf("rep %d query %d: block key %d != scalar gKey %d", i, j, got, want)
					}
				}
			}
		})
	}
}

// TestBatchHashSmallBatchFallsBack pins the minimum-size gate: batches
// under blockHashMinQueries skip the pre-hash entirely and still return
// sequential results.
func TestBatchHashSmallBatchFallsBack(t *testing.T) {
	rng := xrand.New(53)
	pts := workload.SpherePoints(rng, 200, testDim)
	ix := New(rng, sphere.FastCrossPolytope(testDim), 12, pts)
	queries := workload.SpherePoints(rng, blockHashMinQueries-1, testDim)
	if bk := ix.blockHash(queries, 4); bk != nil {
		bk.release()
		t.Fatal("blockHash should skip batches below blockHashMinQueries")
	}
	got, _, _ := ix.QueryBatch(queries, BatchOptions{Workers: 2})
	for i, q := range queries {
		want := ix.CollectDistinct(q, 0)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("query %d: small batch %v != sequential %v", i, got[i], want)
		}
	}
}

// TestBatchHashDynamicWithDeletes runs the differential over the LSM
// backend mid-churn: frozen segments, a live memtable, and tombstones all
// sit under the same candidateSource contract, so the pre-hashed batch
// must match the scalar batch there too.
func TestBatchHashDynamicWithDeletes(t *testing.T) {
	rng := xrand.New(54)
	dx := newOneShard[[]float64](rng, sphere.FastCrossPolytope(testDim), 12, nil,
		DynamicOptions{MemtableThreshold: 64})
	pts := workload.SpherePoints(rng, 300, testDim)
	for _, p := range pts {
		dx.Insert(p)
	}
	for id := 0; id < 300; id += 7 {
		dx.Delete(id)
	}
	queries := workload.SpherePoints(rng, 32, testDim)
	pre, prePer, _ := dx.QueryBatch(queries, BatchOptions{Workers: 4})
	scalar, scalarPer, _ := dx.QueryBatch(queries, BatchOptions{Workers: 4, NoBlockHash: true})
	if !reflect.DeepEqual(pre, scalar) {
		t.Fatal("dynamic pre-hashed batch differs from NoBlockHash batch")
	}
	for i := range queries {
		if !statsEqualIgnoringLatency(prePer[i], scalarPer[i]) {
			t.Fatalf("query %d: pre-hash stats %+v != scalar stats %+v", i, prePer[i], scalarPer[i])
		}
	}
}

// TestBatchHashRangeReporter covers the range-reporting veneer, the other
// batch entry point that consumes the key block.
func TestBatchHashRangeReporter(t *testing.T) {
	rng := xrand.New(55)
	pts := workload.SpherePoints(rng, 400, testDim)
	rr := NewRangeReporter(rng, sphere.FastCrossPolytope(testDim), 16, pts, withinSim(0.2, 1.0))
	queries := workload.SpherePoints(rng, 24, testDim)
	pre, prePer, _ := rr.QueryBatch(queries, BatchOptions{Workers: 4})
	scalar, scalarPer, _ := rr.QueryBatch(queries, BatchOptions{Workers: 4, NoBlockHash: true})
	if !reflect.DeepEqual(pre, scalar) {
		t.Fatal("range-reporter pre-hashed batch differs from NoBlockHash batch")
	}
	for i, q := range queries {
		if !statsEqualIgnoringLatency(prePer[i], scalarPer[i]) {
			t.Fatalf("query %d: pre-hash stats %+v != scalar stats %+v", i, prePer[i], scalarPer[i])
		}
		wantIDs, _ := rr.Query(q)
		if !reflect.DeepEqual(pre[i], wantIDs) {
			t.Fatalf("query %d: batch %v != sequential %v", i, pre[i], wantIDs)
		}
	}
}

// scalarOnly wraps a family so its sampled hashers expose only Hash,
// hiding BatchHasher (and HashNeg) from the index layer.
type scalarOnly struct{ inner core.Family[[]float64] }

func (s scalarOnly) Name() string  { return s.inner.Name() }
func (s scalarOnly) CPF() core.CPF { return s.inner.CPF() }
func (s scalarOnly) Sample(rng *xrand.Rand) core.Pair[[]float64] {
	pair := s.inner.Sample(rng)
	return core.Pair[[]float64]{
		H: core.HasherFunc[[]float64](pair.H.Hash),
		G: core.HasherFunc[[]float64](pair.G.Hash),
	}
}

// TestBatchHashBuildPathIdentical checks the HashBatch build fast path of
// every builder that hashes a column of points (Index.New, NewParallel
// and NewSharded's initial segments): each must be probe-for-probe
// identical to the same build through per-point Hash calls over the same
// draws.
func TestBatchHashBuildPathIdentical(t *testing.T) {
	for _, name := range []string{"fastcp", "power-simhash"} {
		fam := blockHashFamilies[name]
		t.Run(name, func(t *testing.T) {
			if _, ok := fam.Sample(xrand.New(1)).H.(core.BatchHasher[[]float64]); !ok {
				t.Fatalf("%s hasher should implement core.BatchHasher", name)
			}
			pts := workload.SpherePoints(xrand.New(56), 300, testDim)
			batched := New(xrand.New(57), fam, 12, pts)
			scalar := New(xrand.New(57), scalarOnly{inner: fam}, 12, pts)
			if !reflect.DeepEqual(batched.tables, scalar.tables) {
				t.Fatal("New: HashBatch-built tables differ from Hash-built tables")
			}
			batched = NewParallel(xrand.New(58), fam, 12, pts)
			scalar = NewParallel(xrand.New(58), scalarOnly{inner: fam}, 12, pts)
			if !reflect.DeepEqual(batched.tables, scalar.tables) {
				t.Fatal("NewParallel: HashBatch-built tables differ from Hash-built tables")
			}
			opts := ShardOptions{Shards: 3}
			sb := NewSharded(xrand.New(59), fam, 12, pts, opts)
			defer sb.Close()
			ss := NewSharded(xrand.New(59), scalarOnly{inner: fam}, 12, pts, opts)
			defer ss.Close()
			for s := range sb.shards {
				b, c := sb.shards[s].segments, ss.shards[s].segments
				if len(b) != 1 || len(c) != 1 {
					t.Fatalf("shard %d: %d and %d initial segments, want 1", s, len(b), len(c))
				}
				if !reflect.DeepEqual(b[0].keys, c[0].keys) || !reflect.DeepEqual(b[0].tables, c[0].tables) {
					t.Fatalf("NewSharded shard %d: HashBatch-built segment differs from Hash-built segment", s)
				}
			}
		})
	}
}
