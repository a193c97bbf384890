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
// construction), no freeze, flush, monolithic compaction, or tiered merge
// ever evaluates a hash function again.
func TestCompactionPerformsNoHashEvaluations(t *testing.T) {
	fam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	const L, initial, inserts = 12, 100, 400
	pts := workload.SpherePoints(xrand.New(61), initial+inserts, testDim)

	dx := NewDynamic[[]float64](xrand.New(62), fam, L, pts[:initial],
		DynamicOptions{MemtableThreshold: 64})
	for _, p := range pts[initial:] {
		dx.Insert(p)
	}
	for id := 0; id < initial+inserts; id += 5 {
		dx.Delete(id)
	}
	want := int64((initial + inserts) * L)
	if got := fam.hCalls.Load(); got != want {
		t.Fatalf("construction+inserts evaluated %d data hashes, want %d", got, want)
	}

	dx.Flush()
	if dx.Segments() < 3 {
		t.Fatalf("fixture too flat: %d segments", dx.Segments())
	}
	for dx.compactTieredStep() {
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

// TestTieredCompactionPreservesResults drives tiered merge steps over a
// many-segment index and checks each step reduces the segment count while
// leaving query results bit-identical.
func TestTieredCompactionPreservesResults(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(63), 600, testDim)
	dx := NewDynamic[[]float64](xrand.New(64), dynamicFamily(), 10, nil,
		DynamicOptions{MemtableThreshold: 32})
	for _, p := range pts {
		dx.Insert(p)
	}
	for id := 0; id < 600; id += 7 {
		dx.Delete(id)
	}
	dx.Flush()

	queries := workload.SpherePoints(xrand.New(65), 16, testDim)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = dx.CollectDistinct(q, 0)
	}

	for {
		before := dx.Segments()
		if !dx.compactTieredStep() {
			break
		}
		after := dx.Segments()
		if after >= before {
			t.Fatalf("tiered step grew segments: %d -> %d", before, after)
		}
		for i, q := range queries {
			if got := dx.CollectDistinct(q, 0); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("query %d diverged after tiered step: %v != %v", i, got, want[i])
			}
		}
	}
	if dx.Segments() > 2 {
		t.Fatalf("tiered steps left %d segments over equal-sized runs", dx.Segments())
	}
}

func TestTieredRunStart(t *testing.T) {
	seg := func(n int) *segment { return &segment{globalIDs: make([]int32, n)} }
	cases := []struct {
		sizes []int
		want  int
	}{
		{nil, 0},
		{[]int{100}, 0},
		{[]int{100, 100}, 0},                // peers merge
		{[]int{10000, 100, 100}, 1},         // big old segment stays out
		{[]int{10000, 100, 100, 100}, 1},    // run grows along the suffix
		{[]int{400, 100}, 0},                // within the growth factor
		{[]int{401, 100}, 1},                // just beyond it
		{[]int{100000, 4000, 1000, 250}, 1}, // geometric chain folds up to the giant
	}
	for _, c := range cases {
		segs := make([]*segment, len(c.sizes))
		for i, n := range c.sizes {
			segs[i] = seg(n)
		}
		if got := tieredRunStart(segs, defaultGrowthFactor); got != c.want {
			t.Errorf("tieredRunStart(%v) = %d, want %d", c.sizes, got, c.want)
		}
	}
}

// TestAsyncFreezeMatchesInline checks the freeze-mode equivalence claim:
// the same insert/delete stream served with AsyncFreeze returns exactly
// the results of the inline-freeze index, and Flush leaves no pending
// detached memtables behind.
func TestAsyncFreezeMatchesInline(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(71), 800, testDim)
	build := func(async bool) *DynamicIndex[[]float64] {
		dx := NewDynamic[[]float64](xrand.New(72), dynamicFamily(), 12, pts[:200],
			DynamicOptions{MemtableThreshold: 64, AsyncFreeze: async})
		for _, p := range pts[200:] {
			dx.Insert(p)
		}
		for id := 0; id < 800; id += 9 {
			dx.Delete(id)
		}
		return dx
	}
	inline, async := build(false), build(true)
	async.Flush()
	if got := async.PendingFreezes(); got != 0 {
		t.Fatalf("Flush left %d pending freezes", got)
	}
	if inline.Len() != async.Len() {
		t.Fatalf("live counts differ: %d vs %d", inline.Len(), async.Len())
	}
	queries := workload.SpherePoints(xrand.New(73), 24, testDim)
	for i, q := range queries {
		if got, want := async.CollectDistinct(q, 0), inline.CollectDistinct(q, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: async results %v != inline %v", i, got, want)
		}
	}
	async.Compact()
	inline.Compact()
	for i, q := range queries {
		if got, want := async.CollectDistinct(q, 0), inline.CollectDistinct(q, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("post-compact query %d: async results differ", i)
		}
	}
}

// TestDynamicConcurrentQueryAsyncFreeze hammers queries (collect, annulus
// and range veneers) while inserts constantly detach memtables and the
// freezer installs segments in the background. Run under -race (CI does)
// this is the race-freedom check of the asynchronous freeze path; the
// assertions are the interleaving-independent invariants: ids in range,
// no duplicates within one result, deleted ids never reported.
func TestDynamicConcurrentQueryAsyncFreeze(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(81), 3000, testDim)
	dx := NewDynamic[[]float64](xrand.New(82), dynamicFamily(), 10, pts[:200],
		DynamicOptions{MemtableThreshold: 16, AsyncFreeze: true})
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

	for _, p := range pts[200:] {
		dx.Insert(p)
	}
	dx.Flush()
	close(stop)
	wg.Wait()
	if got, want := dx.Len(), len(pts); got != want {
		t.Fatalf("Len = %d after concurrent async freezes, want %d", got, want)
	}
}

// TestDynamicDeleteDuringTieredCompact runs concurrent deletes and
// queries against a background compactor in tiered mode. Under -race this
// checks the tiered swap discipline; the assertions check tombstones are
// honored through any merge interleaving.
func TestDynamicDeleteDuringTieredCompact(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(84), 2000, testDim)
	dx := NewDynamic[[]float64](xrand.New(85), dynamicFamily(), 10, pts[:200],
		DynamicOptions{MemtableThreshold: 32, MaxSegments: 3, BackgroundCompaction: true, Policy: CompactTiered, AsyncFreeze: true})
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
				t.Fatalf("deleted id %d survived tiered compaction", id)
			}
		}
	}
}
