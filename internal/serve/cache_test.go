package serve

import (
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// countingFamily wraps a family so every query-side (G) hash evaluation
// increments a shared counter — the instrument that proves a cache hit
// really skipped hashing, not just the probe.
type countingFamily struct {
	inner  core.Family[[]float64]
	gCalls *atomic.Int64
}

type countingHasher struct {
	inner core.Hasher[[]float64]
	calls *atomic.Int64
}

func (h countingHasher) Hash(p []float64) uint64 {
	h.calls.Add(1)
	return h.inner.Hash(p)
}

func (f countingFamily) Name() string  { return "counting(" + f.inner.Name() + ")" }
func (f countingFamily) CPF() core.CPF { return f.inner.CPF() }

func (f countingFamily) Sample(rng *xrand.Rand) core.Pair[[]float64] {
	pair := f.inner.Sample(rng)
	return core.Pair[[]float64]{
		H: pair.H,
		G: countingHasher{inner: pair.G, calls: f.gCalls},
	}
}

// TestQueryCacheHitSkipsHashEvaluation pins the cache's whole point: the
// second serving of a hot query performs zero query-side hash
// evaluations and returns the identical id list.
func TestQueryCacheHitSkipsHashEvaluation(t *testing.T) {
	gCalls := &atomic.Int64{}
	fam := countingFamily{inner: testFamily(), gCalls: gCalls}
	ix := index.NewSharded[[]float64](xrand.New(421), fam, testL, nil, index.ShardOptions{
		Shards:  2,
		Routing: index.RouteHash,
		Dynamic: index.DynamicOptions{MemtableThreshold: 64},
	})
	defer ix.Close()
	for i, p := range workload.SpherePoints(xrand.New(422), 100, testDim) {
		ix.InsertKeyed(uint64(i), p)
	}
	srv := New(ix, Options{Dim: testDim, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	vec := workload.SpherePoints(xrand.New(423), 1, testDim)[0]

	first := wireQuery(t, ts.Client(), ts.URL, vec)
	if first.Cached {
		t.Fatal("first serving reported Cached=true")
	}
	between := gCalls.Load()
	if between == 0 {
		t.Fatal("first serving performed no query-side hash evaluations")
	}

	second := wireQuery(t, ts.Client(), ts.URL, vec)
	if !second.Cached {
		t.Fatal("second serving of the same vector missed the cache")
	}
	if got := gCalls.Load(); got != between {
		t.Fatalf("cache hit evaluated hashes: %d -> %d G calls", between, got)
	}
	if !sameIDs(second.IDs, first.IDs) {
		t.Fatalf("cache hit returned %v, first serving returned %v", second.IDs, first.IDs)
	}
	if second.Epoch != first.Epoch {
		t.Fatalf("cache hit at epoch %d, stored at %d", second.Epoch, first.Epoch)
	}
}

// TestQueryCacheNeverServesStale is the cache-invalidation differential:
// across rounds of keyed upserts, deletes, explicit compaction (tombstone
// GC folds) and snapshot barriers, a wire query must always match a
// fresh in-process computation — a cached answer may only be served while
// its epoch is exactly current.
func TestQueryCacheNeverServesStale(t *testing.T) {
	ix, _ := newKeyedIndex(t, 200)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	probes := workload.SpherePoints(xrand.New(431), 8, testDim)
	fresh := workload.SpherePoints(xrand.New(432), 64, testDim)
	rng := xrand.New(433)

	staleBefore := mCacheStale.Value()
	hitsBefore := mCacheHits.Value()
	for round := 0; round < 12; round++ {
		// Warm the cache on every probe, twice so hits occur.
		for _, vec := range probes {
			wireQuery(t, ts.Client(), ts.URL, vec)
			wireQuery(t, ts.Client(), ts.URL, vec)
		}
		// Churn: upserts and deletes over the preloaded key space, then a
		// GC-folding compaction and a snapshot barrier.
		for i := 0; i < 10; i++ {
			key := rng.Uint64() % 200
			if i%3 == 2 {
				ix.DeleteKeyed(key)
			} else {
				ix.InsertKeyed(key, fresh[rng.Uint64()%uint64(len(fresh))])
			}
		}
		ix.Compact()
		barrier := ix.Snapshot()
		barrier.Release()

		// Differential check: every wire answer equals the in-process
		// answer at the live epoch. The test is serial, so the epochs
		// must line up exactly.
		snap := ix.Snapshot()
		want, _, _ := snap.QueryBatch(probes, index.BatchOptions{})
		for i, vec := range probes {
			qr := wireQuery(t, ts.Client(), ts.URL, vec)
			if qr.Epoch != snap.Epoch() {
				t.Fatalf("round %d: wire epoch %d, live epoch %d", round, qr.Epoch, snap.Epoch())
			}
			if !sameIDs(qr.IDs, want[i]) {
				t.Fatalf("round %d probe %d: wire %v != in-process %v (stale cache?)",
					round, i, qr.IDs, want[i])
			}
		}
		snap.Release()
	}
	if d := mCacheStale.Value() - staleBefore; d == 0 {
		t.Fatal("churn rounds never discarded a stale cache entry")
	}
	if d := mCacheHits.Value() - hitsBefore; d == 0 {
		t.Fatal("warm rounds never hit the cache")
	}
}

// TestQueryCacheLRU unit-tests the double-indexed LRU structure directly:
// eviction order, stale discard, fingerprint aliasing, and removal
// consistency between the two maps.
func TestQueryCacheLRU(t *testing.T) {
	// q is the query stored under fingerprint fp: one coordinate, fp.
	q := func(fp uint64) *pending { return &pending{fp: fp, vec: []float64{float64(fp)}} }
	c := newQueryCache(2)
	c.store(1, q(10), 5, []int{1})
	c.store(2, q(20), 5, []int{2})
	if _, ok := c.lookup(q(10), 5); !ok {
		t.Fatal("entry 1 missing")
	}
	// Entry 1 is now most recent; storing a third evicts entry 2.
	c.store(3, q(30), 5, []int{3})
	if _, ok := c.lookup(q(20), 5); ok {
		t.Fatal("LRU kept the least-recently-used entry")
	}
	if _, ok := c.lookup(q(10), 5); !ok {
		t.Fatal("LRU evicted the most-recently-used entry")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	// Stale: an epoch bump invalidates on lookup.
	if _, ok := c.lookup(q(10), 6); ok {
		t.Fatal("lookup served an entry from an older epoch")
	}
	if _, ok := c.lookup(q(10), 5); ok {
		t.Fatal("stale entry was not discarded")
	}

	// Aliasing: a second fingerprint with the same signature and epoch
	// shares the entry; removing the entry clears both fingerprints.
	c2 := newQueryCache(4)
	c2.store(7, q(70), 9, []int{7})
	c2.store(7, q(71), 9, []int{7})
	if c2.len() != 1 {
		t.Fatalf("aliased store created %d entries, want 1", c2.len())
	}
	if ids, ok := c2.lookup(q(71), 9); !ok || len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("aliased fingerprint lookup = %v, %v", ids, ok)
	}
	if _, ok := c2.lookup(q(70), 11); ok {
		t.Fatal("stale aliased entry served")
	}
	if _, ok := c2.lookup(q(71), 9); ok {
		t.Fatal("removing a stale entry left an aliased fingerprint behind")
	}
}

// TestQueryCacheFingerprintCollisionMisses forces different queries under
// one fingerprint: a hit needs the exact stored vector and bound, so a
// collision is a miss, never another query's result.
func TestQueryCacheFingerprintCollisionMisses(t *testing.T) {
	vecs := workload.SpherePoints(xrand.New(443), 2, testDim)
	a := &pending{fp: 42, vec: vecs[0]}
	b := &pending{fp: 42, vec: vecs[1]}
	c := newQueryCache(4)
	c.store(1, a, 5, []int{1})
	if _, ok := c.lookup(b, 5); ok {
		t.Fatal("a different vector under the same fingerprint hit the cache")
	}
	if _, ok := c.lookup(&pending{fp: 42, vec: vecs[0], max: 3}, 5); ok {
		t.Fatal("a different candidate bound under the same fingerprint hit the cache")
	}
	if ids, ok := c.lookup(a, 5); !ok || ids[0] != 1 {
		t.Fatalf("the stored query missed: %v, %v", ids, ok)
	}

	// The second query takes the slot over; now the first one misses.
	c.store(2, b, 5, []int{2})
	if ids, ok := c.lookup(b, 5); !ok || ids[0] != 2 {
		t.Fatalf("the slot's new query missed: %v, %v", ids, ok)
	}
	if _, ok := c.lookup(a, 5); ok {
		t.Fatal("a query displaced from its fingerprint slot still hit")
	}
}

// TestQueryCacheFingerprint pins that the candidate bound participates in
// both cache keys: same vector, different max, no aliasing.
func TestQueryCacheFingerprint(t *testing.T) {
	vec := workload.SpherePoints(xrand.New(441), 1, testDim)[0]
	if fingerprint(vec, 0) == fingerprint(vec, 5) {
		t.Fatal("fingerprint ignores the candidate bound")
	}
	if mixSig(99, 0) == mixSig(99, 5) {
		t.Fatal("mixSig ignores the candidate bound")
	}
	other := workload.SpherePoints(xrand.New(442), 1, testDim)[0]
	if fingerprint(vec, 0) == fingerprint(other, 0) {
		t.Fatal("distinct vectors share a fingerprint")
	}
}
