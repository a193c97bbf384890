package index

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsh/internal/core"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// countingFamily wraps a family so every data-side (H) and query-side (G)
// hash evaluation increments shared counters, letting tests assert that
// merges move memory instead of re-evaluating hash functions.
type countingFamily struct {
	inner  core.Family[[]float64]
	hCalls *atomic.Int64
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
		H: countingHasher{inner: pair.H, calls: f.hCalls},
		G: countingHasher{inner: pair.G, calls: f.gCalls},
	}
}

// TestCompactionPerformsNoHashEvaluations is the rehash-free acceptance
// criterion: once a point's keys are evaluated at Insert (or initial
// construction), no freeze (threshold, Snapshot or Flush), leveled
// upper-tier fold, or monolithic compaction ever evaluates a hash function
// again.
func TestCompactionPerformsNoHashEvaluations(t *testing.T) {
	fam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	const L, initial, inserts = 12, 100, 400
	pts := workload.SpherePoints(xrand.New(61), initial+inserts, testDim)

	dx := newOneShard[[]float64](xrand.New(62), fam, L, pts[:initial],
		DynamicOptions{MemtableThreshold: 64})
	for i, p := range pts[initial:] {
		dx.Insert(p)
		if i%100 == 50 {
			dx.Snapshot().Release() // a Snapshot-forced freeze
		}
	}
	for id := 0; id < initial+inserts; id += 5 {
		dx.Delete(id)
	}
	want := int64((initial + inserts) * L)
	if got := fam.hCalls.Load(); got != want {
		t.Fatalf("construction+inserts evaluated %d data hashes, want %d", got, want)
	}

	dx.Flush()
	if dx.Segments() < 4 {
		t.Fatalf("fixture too flat: %d segments", dx.Segments())
	}
	if !dx.shards[0].compactUpperStep() {
		t.Fatal("compactUpperStep found nothing to fold")
	}
	dx.Compact()
	if got := fam.hCalls.Load(); got != want {
		t.Fatalf("merges evaluated %d extra data hashes, want 0", got-want)
	}
	if got := fam.gCalls.Load(); got != 0 {
		t.Fatalf("merges evaluated %d query hashes, want 0", got)
	}

	// The merged index still answers correctly: every live point finds
	// itself (SimHash^k collides with probability 1 at distance 0).
	for id := 0; id < initial+inserts; id += 37 {
		if dx.Deleted(id) {
			continue
		}
		found := false
		for _, c := range dx.CollectDistinct(dx.Point(id), 0) {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("live point %d lost after rehash-free merges", id)
		}
	}
}

// TestAsyncFreezeMatchesInline checks that every freeze path serves the
// static answer: an insert/delete stream frozen at the threshold, by
// Snapshots mid-stream and by Flush returns exactly the candidate stream
// of a static New over the survivors with the same repetition draws,
// before and after Compact.
func TestAsyncFreezeMatchesInline(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(71), 800, testDim)
	dx := newOneShard[[]float64](xrand.New(72), dynamicFamily(), 12, pts[:200],
		DynamicOptions{MemtableThreshold: 64})
	for i, p := range pts[200:] {
		dx.Insert(p)
		if i%50 == 7 {
			dx.Snapshot().Release()
		}
	}
	for id := 0; id < 800; id += 9 {
		dx.Delete(id)
	}
	dx.Flush()
	if got := dx.MemtableLen(); got != 0 {
		t.Fatalf("Flush left %d rows in the memtable", got)
	}

	var survivors [][]float64
	var ids []int
	for id := range pts {
		if !dx.Deleted(id) {
			survivors = append(survivors, pts[id])
			ids = append(ids, id)
		}
	}
	if dx.Len() != len(survivors) {
		t.Fatalf("Len = %d, want %d survivors", dx.Len(), len(survivors))
	}
	static := New(xrand.New(72), dynamicFamily(), 12, survivors)
	queries := workload.SpherePoints(xrand.New(73), 24, testDim)
	check := func(label string) {
		t.Helper()
		for i, q := range queries {
			var want []int
			for _, pos := range static.CollectDistinct(q, 0) {
				want = append(want, ids[pos])
			}
			if got := dx.CollectDistinct(q, 0); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s query %d: dynamic %v != static %v", label, i, got, want)
			}
		}
	}
	check("pre-compact")
	dx.Compact()
	check("post-compact")
}

// TestDynamicConcurrentQueryAsyncFreeze hammers queries (collect, annulus
// and range veneers) while inserts constantly freeze memtables, at the
// threshold and through Snapshots. Run under -race (CI does) this is the
// race-freedom check of the freeze paths; the assertions are the
// interleaving-independent invariants: ids in range and no duplicates
// within one result.
func TestDynamicConcurrentQueryAsyncFreeze(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(81), 3000, testDim)
	dx := newOneShard[[]float64](xrand.New(82), dynamicFamily(), 10, pts[:200],
		DynamicOptions{MemtableThreshold: 16})
	within := withinSim(-1, 2)
	ai := NewAnnulusOver(dx, within)
	rr := NewRangeReporterOver(dx, within)

	queries := workload.SpherePoints(xrand.New(83), 8, testDim)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qr := dx.NewQuerier()
			seen := map[int]bool{}
			var dst []int
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				res, _ := qr.CollectDistinct(q, 0)
				for k := range seen {
					delete(seen, k)
				}
				for _, id := range res {
					if id < 0 || seen[id] {
						t.Errorf("bad candidate id %d", id)
						return
					}
					seen[id] = true
				}
				if id, _ := ai.Query(q); id < -1 {
					t.Errorf("annulus returned %d", id)
					return
				}
				dst, _ = rr.AppendQuery(dst[:0], q)
			}
		}(w)
	}

	for i, p := range pts[200:] {
		dx.Insert(p)
		if i%7 == 0 {
			dx.Snapshot().Release()
		}
	}
	dx.Flush()
	close(stop)
	wg.Wait()
	if got, want := dx.Len(), len(pts); got != want {
		t.Fatalf("Len = %d after concurrent freezes, want %d", got, want)
	}
}

// TestDynamicDeleteDuringTieredCompact runs concurrent deletes and
// queries against a CompactAll background compactor. Under -race this
// checks the merge swap discipline; the assertions check tombstones are
// honored through any merge interleaving.
func TestDynamicDeleteDuringTieredCompact(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(84), 2000, testDim)
	dx := newOneShard[[]float64](xrand.New(85), dynamicFamily(), 10, pts[:200],
		DynamicOptions{MemtableThreshold: 32, MaxSegments: 3, BackgroundCompaction: true})
	defer dx.Close()

	queries := workload.SpherePoints(xrand.New(86), 8, testDim)
	stop := make(chan struct{})
	deleted := &atomic.Int64{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		qr := dx.NewQuerier()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			res, _ := qr.CollectDistinct(queries[i%len(queries)], 0)
			for _, id := range res {
				if id < 0 || id >= 2000 {
					t.Errorf("candidate id %d out of range", id)
					return
				}
			}
		}
	}()

	mrng := xrand.New(87)
	for i, p := range pts[200:] {
		id := dx.Insert(p)
		if i%3 == 0 {
			victim := mrng.Intn(id + 1)
			if dx.Delete(victim) {
				deleted.Add(1)
			}
		}
	}
	// Let the background compactor catch up, then verify tombstones.
	deadline := time.Now().Add(5 * time.Second)
	for dx.Segments() > 3+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	dx.Compact()
	if got, want := dx.Len(), 2000-int(deleted.Load()); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for _, q := range queries {
		for _, id := range dx.CollectDistinct(q, 0) {
			if dx.Deleted(id) {
				t.Fatalf("deleted id %d survived compaction", id)
			}
		}
	}
}
