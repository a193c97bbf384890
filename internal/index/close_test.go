package index

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dsh/internal/durable"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestCloseIdempotent hammers Close from many goroutines on both a plain
// and a durable one-shard index: the seal must run exactly once, nothing
// may panic, and the durable directory must reopen cleanly afterwards.
func TestCloseIdempotent(t *testing.T) {
	pts := workload.SpherePoints(xrand.New(801), 60, testDim)

	plain := newOneShard[[]float64](xrand.New(71), dynamicFamily(), 4, pts,
		DynamicOptions{BackgroundCompaction: true, MemtableThreshold: 16})
	dir := t.TempDir()
	dur, err := NewDurableSharded[[]float64](dir, 71, dynamicFamily(), 4, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 16}}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		dur.Insert(p)
	}

	for _, dx := range []*ShardedIndex[[]float64]{plain, dur} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dx.Close()
				dx.Close()
			}()
		}
		wg.Wait()
	}
	if err := dur.DurableErr(); err != nil {
		t.Fatalf("durable error after concurrent closes: %v", err)
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 16}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	requireSameServing(t, dur, rx)
}

// TestCloseConcurrentWithWriters races Close against live insert
// goroutines on the store's single shard. Writers that land before the
// seal are journaled; any that land after are in-memory only and must
// latch ErrNotJournaled. Either way the directory must reopen, recovering
// a subset of the inserted points with no corruption and no invented
// rows.
func TestCloseConcurrentWithWriters(t *testing.T) {
	const writers, perWriter = 4, 40
	dir := t.TempDir()
	pts := workload.SpherePoints(xrand.New(803), writers*perWriter, testDim)
	dx, err := NewDurableSharded[[]float64](dir, 73, dynamicFamily(), 4, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 8, Policy: CompactLeveled}}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The writers drive the shard itself: ShardedIndex.Insert refuses a
	// closed index, and the race here is between a mutation and the seal.
	sh := dx.shards[0]
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				sh.Insert(pts[w*perWriter+i])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		dx.Close()
	}()
	close(start)
	wg.Wait()
	dx.Close() // second close after the dust settles: still a no-op

	if err := dx.DurableErr(); err != nil && !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("unexpected durable error: %v", err)
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 8, Policy: CompactLeveled}, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after racing close failed: %v", err)
	}
	defer rx.Close()

	if rx.Len() > dx.Len() {
		t.Fatalf("recovered %d rows but only %d were ever inserted in memory", rx.Len(), dx.Len())
	}
	inserted := map[string]bool{}
	for _, p := range pts {
		inserted[fmt.Sprint(p)] = true
	}
	for id := 0; id < len(rx.shards[0].points); id++ {
		if rx.Deleted(id) {
			continue
		}
		if !inserted[fmt.Sprint(rx.Point(id))] {
			t.Fatalf("recovered point %d was never inserted", id)
		}
	}
	if dx.DurableErr() == nil && rx.Len() != dx.Len() {
		t.Fatalf("no write was reported lost, but recovery has %d rows vs %d in memory", rx.Len(), dx.Len())
	}
}

// TestMutationAfterCloseLatchesErrNotJournaled proves the documented
// failure model: a mutation after Close (a delete — inserts panic on a
// closed index) still applies in memory but latches ErrNotJournaled, and
// recovery serves only the sealed state.
func TestMutationAfterCloseLatchesErrNotJournaled(t *testing.T) {
	dir := t.TempDir()
	pts := workload.SpherePoints(xrand.New(805), 40, testDim)
	dx, err := NewDurableSharded[[]float64](dir, 79, dynamicFamily(), 4, durable.Float64Codec{},
		ShardOptions{Shards: 1, Routing: RouteHash, Dynamic: DynamicOptions{MemtableThreshold: 16}}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:30] {
		dx.InsertKeyed(uint64(i), p)
	}
	dx.Close()
	if err := dx.DurableErr(); err != nil {
		t.Fatalf("durable error after clean close: %v", err)
	}

	id3, _ := dx.LookupKey(3)
	if !dx.Delete(id3) || !dx.DeleteKeyed(9) {
		t.Fatal("post-close delete of a live point returned false")
	}
	if dx.Len() != 28 {
		t.Fatalf("post-close mutations not applied in memory: len %d", dx.Len())
	}
	if err := dx.DurableErr(); !errors.Is(err, ErrNotJournaled) {
		t.Fatalf("DurableErr after post-close mutation = %v, want ErrNotJournaled", err)
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 16}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if rx.Len() != 30 {
		t.Fatalf("recovered %d rows, want the 30 sealed ones", rx.Len())
	}
	for _, key := range []uint64{3, 9} {
		if _, ok := rx.LookupKey(key); !ok {
			t.Fatalf("post-close delete of key %d leaked onto disk", key)
		}
	}
}

// TestShardedCloseIdempotent: concurrent Close calls on a durable
// sharded index seal every shard exactly once, and the directory
// reopens with identical keyed state.
func TestShardedCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	pts := workload.SpherePoints(xrand.New(807), 120, testDim)
	sx, err := NewDurableSharded[[]float64](dir, 83, dynamicFamily(), 4, durable.Float64Codec{},
		ShardOptions{Shards: 3, Routing: RouteHash, Dynamic: DynamicOptions{MemtableThreshold: 16}},
		durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		sx.InsertKeyed(uint64(i), p)
	}
	wantLen := sx.Len()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sx.Close()
		}()
	}
	wg.Wait()
	if err := sx.DurableErr(); err != nil {
		t.Fatalf("durable error after concurrent sharded closes: %v", err)
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 16}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if rx.Len() != wantLen {
		t.Fatalf("recovered %d rows, want %d", rx.Len(), wantLen)
	}
	for i := range pts {
		wid, wok := sx.LookupKey(uint64(i))
		gid, gok := rx.LookupKey(uint64(i))
		if !gok || wok != gok || wid != gid {
			t.Fatalf("key %d diverged after close/reopen", i)
		}
	}
}
