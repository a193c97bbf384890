package index

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dsh/internal/durable"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// recoverQueries is the shared probe set for recovery comparisons.
func recoverQueries(n int) [][]float64 {
	return workload.SpherePoints(xrand.New(971), n, testDim)
}

// idBound returns the exclusive upper bound of sx's global id space.
func idBound[P any](sx *ShardedIndex[P]) int {
	n := sx.beginRead()
	sx.endRead()
	return n
}

// requireSameServing asserts that two one-shard indexes serve
// identically: same live count, same candidate stream for every probe,
// and same stored point under every live id.
func requireSameServing(t *testing.T, want, got *ShardedIndex[[]float64]) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("live count diverged: want %d, got %d", want.Len(), got.Len())
	}
	for qi, q := range recoverQueries(24) {
		w := want.CollectDistinct(q, 0)
		g := got.CollectDistinct(q, 0)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("query %d candidate stream diverged:\nwant %v\ngot  %v", qi, w, g)
		}
	}
	bound := idBound(want)
	if gb := idBound(got); gb != bound {
		t.Fatalf("id bound diverged: want %d, got %d", bound, gb)
	}
	for id := 0; id < bound; id++ {
		if want.Deleted(id) != got.Deleted(id) {
			t.Fatalf("tombstone for id %d diverged", id)
		}
		if want.Deleted(id) {
			continue
		}
		if !reflect.DeepEqual(want.Point(id), got.Point(id)) {
			t.Fatalf("point %d diverged after recovery", id)
		}
	}
}

// TestRecoverCleanShutdownZeroHashes is the tentpole acceptance test:
// after a clean Close, OpenSharded rebuilds the exact serving state — and
// the counting family proves recovery performs zero hash evaluations on
// points (manifest + segment files + retained key columns carry
// everything).
func TestRecoverCleanShutdownZeroHashes(t *testing.T) {
	dir := t.TempDir()
	const seed, L, n = 41, 8, 700
	fam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	pts := workload.SpherePoints(xrand.New(701), n, testDim)

	dx, err := NewDurableSharded[[]float64](dir, seed, fam, L, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 64, Policy: CompactLeveled}}, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		dx.Insert(p)
	}
	for id := 0; id < n; id += 3 {
		dx.Delete(id)
	}
	dx.Compact() // leveled GC: renumbers ids, journals a gcRemap record
	for _, p := range pts[:50] {
		dx.Insert(p)
	}
	dx.Close()
	if err := dx.DurableErr(); err != nil {
		t.Fatalf("durable error after clean close: %v", err)
	}

	rfam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	rx, err := OpenSharded[[]float64](dir, rfam, durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 64, Policy: CompactLeveled}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if h := rfam.hCalls.Load(); h != 0 {
		t.Fatalf("recovery evaluated %d data-side hashes, want 0", h)
	}
	if g := rfam.gCalls.Load(); g != 0 {
		t.Fatalf("recovery evaluated %d query-side hashes, want 0", g)
	}
	requireSameServing(t, dx, rx)

	// The recovered index must also match a static rebuild over the
	// survivors: after the GC dropped every tombstone, live ids are dense,
	// so a static Index over the live points (same family draws) serves the
	// identical candidate stream.
	rx.Compact()
	live := make([][]float64, 0, rx.Len())
	for id := 0; id < idBound(rx); id++ {
		if !rx.Deleted(id) {
			live = append(live, rx.Point(id))
		}
	}
	static := New[[]float64](xrand.New(seed), dynamicFamily(), L, live)
	for qi, q := range recoverQueries(24) {
		if w, g := static.CollectDistinct(q, 0), rx.CollectDistinct(q, 0); !reflect.DeepEqual(w, g) {
			t.Fatalf("query %d diverged from static rebuild:\nwant %v\ngot  %v", qi, w, g)
		}
	}
}

// TestRecoverWALTailWithoutClose drops the index without Close (the
// manifest never advances past creation) and recovers everything from the
// WAL alone — the pure log-replay path, including keyed upserts and
// deletes.
func TestRecoverWALTailWithoutClose(t *testing.T) {
	dir := t.TempDir()
	const seed, L, n = 43, 6, 300
	pts := workload.SpherePoints(xrand.New(703), n, testDim)

	dx, err := NewDurableSharded[[]float64](dir, seed, dynamicFamily(), L, durable.Float64Codec{},
		ShardOptions{Shards: 1, Routing: RouteHash, Dynamic: DynamicOptions{MemtableThreshold: 32}}, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		dx.InsertKeyed(uint64(i%100), p) // heavy upserts: 3 versions per key
	}
	for k := uint64(0); k < 100; k += 4 {
		dx.DeleteKeyed(k)
	}
	// No Close: the open WAL file holds the whole history (FsyncAlways).

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 32}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	requireSameServing(t, dx, rx)
	for k := uint64(0); k < 100; k++ {
		wid, wok := dx.LookupKey(k)
		gid, gok := rx.LookupKey(k)
		if wok != gok || wid != gid {
			t.Fatalf("key %d diverged: want (%d,%v), got (%d,%v)", k, wid, wok, gid, gok)
		}
	}
}

// TestRecoverAfterPersistSkipsBufferedDeletes exercises the watermark
// contract: records below the manifest's watermark must not replay twice,
// and buffered-region deletes (already folded into the manifest bitmap)
// must be skipped rather than re-applied.
func TestRecoverAfterPersistSkipsBufferedDeletes(t *testing.T) {
	dir := t.TempDir()
	const seed, L = 47, 6
	pts := workload.SpherePoints(xrand.New(705), 200, testDim)

	dx, err := NewDurableSharded[[]float64](dir, seed, dynamicFamily(), L, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 64}}, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts[:150] {
		dx.Insert(p)
	}
	for id := 0; id < 150; id += 5 {
		dx.Delete(id)
	}
	if err := dx.Persist(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail: lives only in the fresh WAL.
	for _, p := range pts[150:] {
		dx.Insert(p)
	}
	dx.Delete(3) // double-delete across the checkpoint: must stay a no-op
	dx.Delete(160)

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 64}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	requireSameServing(t, dx, rx)
}

// TestRecoverSharded checks per-shard durability: a hash-routed sharded
// index persists each shard into its own subdirectory, recovers them in
// parallel with zero hash evaluations, and resumes with identical keyed
// serving state.
func TestRecoverSharded(t *testing.T) {
	dir := t.TempDir()
	const seed, L, K, n = 53, 6, 4, 400
	fam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	pts := workload.SpherePoints(xrand.New(707), n, testDim)

	sx, err := NewDurableSharded[[]float64](dir, seed, fam, L, durable.Float64Codec{},
		ShardOptions{Shards: K, Routing: RouteHash, Dynamic: DynamicOptions{MemtableThreshold: 32}},
		durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		sx.InsertKeyed(uint64(i%250), p)
	}
	for k := uint64(0); k < 250; k += 7 {
		sx.DeleteKeyed(k)
	}
	if err := sx.Persist(); err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:60] {
		sx.InsertKeyed(uint64(1000+i), p)
	}
	// No Close: recovery replays each shard's WAL tail.

	rfam := countingFamily{inner: dynamicFamily(), hCalls: &atomic.Int64{}, gCalls: &atomic.Int64{}}
	rx, err := OpenSharded[[]float64](dir, rfam, durable.Float64Codec{},
		DynamicOptions{MemtableThreshold: 32}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	if h := rfam.hCalls.Load(); h != 0 {
		t.Fatalf("sharded recovery evaluated %d data-side hashes, want 0", h)
	}
	if rx.Shards() != K {
		t.Fatalf("recovered %d shards, want %d", rx.Shards(), K)
	}
	if sx.Len() != rx.Len() {
		t.Fatalf("live count diverged: want %d, got %d", sx.Len(), rx.Len())
	}
	for k := uint64(0); k < 1100; k++ {
		wid, wok := sx.LookupKey(k)
		gid, gok := rx.LookupKey(k)
		if wok != gok || (wok && wid != gid) {
			t.Fatalf("key %d diverged: want (%d,%v), got (%d,%v)", k, wid, wok, gid, gok)
		}
	}
	for qi, q := range recoverQueries(16) {
		if w, g := sx.CollectDistinct(q, 0), rx.CollectDistinct(q, 0); !reflect.DeepEqual(w, g) {
			t.Fatalf("query %d candidate stream diverged:\nwant %v\ngot  %v", qi, w, g)
		}
	}

	// Round-robin insert on the recovered index must keep working from the
	// restored cursor without panicking id arithmetic (hash-routed here, so
	// exercise the keyed path again instead).
	rx.InsertKeyed(9999, pts[0])
	if _, ok := rx.LookupKey(9999); !ok {
		t.Fatal("insert after sharded recovery not visible")
	}
}

// TestOpenRejectsWrongKind makes sure OpenSharded refuses directories
// that do not hold a whole store — one shard's subdirectory and an empty
// directory — and that NewDurableSharded refuses to overwrite a store.
func TestOpenRejectsWrongKind(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	sx, err := NewDurableSharded[[]float64](dir, 1, dynamicFamily(), 4, durable.Float64Codec{},
		ShardOptions{Shards: 1}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sx.Close()
	if _, err := OpenSharded[[]float64](filepath.Join(dir, shardDirName(0)), dynamicFamily(), durable.Float64Codec{}, DynamicOptions{}, durable.Options{}); err == nil {
		t.Fatal("OpenSharded accepted a shard subdirectory")
	}
	if _, err := OpenSharded[[]float64](t.TempDir(), dynamicFamily(), durable.Float64Codec{}, DynamicOptions{}, durable.Options{}); err == nil {
		t.Fatal("OpenSharded accepted an empty directory")
	}
	if _, err := NewDurableSharded[[]float64](dir, 1, dynamicFamily(), 4, durable.Float64Codec{}, ShardOptions{Shards: 1}, durable.Options{}); err == nil {
		t.Fatal("NewDurableSharded overwrote an existing store")
	}
	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{}, DynamicOptions{}, durable.Options{})
	if err != nil {
		t.Fatalf("the store itself no longer opens: %v", err)
	}
	rx.Close()
}

// rewriteTopManifest commits a modified copy of the store's top-level
// manifest (CRC-valid, under the next sequence number, so it is the one
// recovery loads).
func rewriteTopManifest(t *testing.T, dir string, edit func(m *durable.Manifest)) {
	t.Helper()
	env, err := durable.OpenEnv(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := env.LoadManifest()
	if err != nil || m == nil {
		t.Fatalf("load top manifest: %v", err)
	}
	edit(m)
	m.Seq++
	if err := env.WriteManifest(m); err != nil {
		t.Fatal(err)
	}
}

// TestOpenShardedChecksManifestFirst: a top-level manifest recording more
// shards than exist on disk, or more repetitions than the segment reader
// accepts, is reported as ErrCorrupt before OpenSharded creates a
// directory or samples a draw.
func TestOpenShardedChecksManifestFirst(t *testing.T) {
	newStore := func() string {
		dir := t.TempDir()
		sx, err := NewDurableSharded[[]float64](dir, 3, dynamicFamily(), 4, durable.Float64Codec{},
			ShardOptions{Shards: 2, Routing: RouteHash}, durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sx.InsertKeyed(1, recoverQueries(1)[0])
		sx.Close()
		return dir
	}
	open := func(dir string) error {
		rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{}, DynamicOptions{}, durable.Options{})
		if err == nil {
			rx.Close()
		}
		return err
	}

	dir := newStore()
	rewriteTopManifest(t, dir, func(m *durable.Manifest) { m.Shards = 8 })
	if err := open(dir); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("8-shard manifest over 2 shard directories: err = %v, want ErrCorrupt", err)
	}
	for s := 2; s < 8; s++ {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(s))); !os.IsNotExist(err) {
			t.Fatalf("OpenSharded created %s (stat err %v)", shardDirName(s), err)
		}
	}

	dir = newStore()
	rewriteTopManifest(t, dir, func(m *durable.Manifest) { m.L = durable.MaxRepetitions + 1 })
	if err := open(dir); !errors.Is(err, durable.ErrCorrupt) {
		t.Fatalf("L = %d: err = %v, want ErrCorrupt", durable.MaxRepetitions+1, err)
	}
}
