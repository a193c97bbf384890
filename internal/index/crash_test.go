package index

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsh/internal/durable"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// The crash matrix: a deterministic scripted workload (inserts, keyed
// upserts, deletes, checkpoints, GC compactions) runs against the single
// shard of a durable one-shard index with a fault injected at every named
// syscall point of the shard's store, at several occurrences each. After the simulated kill the script keeps issuing
// mutations (they are lost by definition — the process is dead), then
// recovery opens the directory and the recovered state must equal an
// in-memory reference replay of the acked op prefix: either all ops
// through the crashing op or all ops before it, depending on whether the
// crashing op's WAL record reached the file. Anything else — a third
// state, a corrupt read, a failed open — is a recovery bug.

const (
	crashSeed = 59
	crashL    = 6
	crashOps  = 120
)

type crashOp struct {
	kind int // 0 insert, 1 insertKeyed, 2 delete, 3 deleteKeyed, 4 persist, 5 compact
	key  uint64
	pi   int
}

// crashScript is the deterministic op sequence shared by every matrix
// case, paired with the point pool it draws from.
func crashScript() ([]crashOp, [][]float64) {
	pts := workload.SpherePoints(xrand.New(709), crashOps, testDim)
	rng := xrand.New(711)
	ops := make([]crashOp, 0, crashOps)
	next := 0
	for i := 0; i < crashOps; i++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			ops = append(ops, crashOp{kind: 0, pi: next})
			next++
		case r < 0.62:
			ops = append(ops, crashOp{kind: 1, key: uint64(rng.Intn(30)), pi: next})
			next++
		case r < 0.72:
			ops = append(ops, crashOp{kind: 2, key: uint64(rng.Intn(crashOps))})
		case r < 0.82:
			ops = append(ops, crashOp{kind: 3, key: uint64(rng.Intn(30))})
		case r < 0.92:
			ops = append(ops, crashOp{kind: 4})
		default:
			ops = append(ops, crashOp{kind: 5})
		}
	}
	return ops, pts
}

func crashDynOpts() DynamicOptions {
	return DynamicOptions{MemtableThreshold: 8, Policy: CompactLeveled}
}

// applyCrashOp applies one scripted op to a one-shard index's shard, which
// takes plain and keyed inserts alike; the durable index and the
// in-memory reference go through the identical code path, so their id
// assignment (including GC renumbering) stays in lockstep.
func applyCrashOp(sx *ShardedIndex[[]float64], op crashOp, pts [][]float64) {
	dx := sx.shards[0]
	switch op.kind {
	case 0:
		dx.Insert(pts[op.pi])
	case 1:
		dx.InsertKeyed(op.key, pts[op.pi])
	case 2:
		dx.Delete(int(op.key))
	case 3:
		dx.DeleteKeyed(op.key)
	case 4:
		_ = dx.Persist() // reference: no-op; durable: checkpoint
	case 5:
		dx.Compact()
	}
}

// crashReference replays ops[:n] on a fresh in-memory index sharing the
// durable index's repetition draws.
func crashReference(n int, ops []crashOp, pts [][]float64) *ShardedIndex[[]float64] {
	ref := newOneShard[[]float64](xrand.New(crashSeed), dynamicFamily(), crashL, nil, crashDynOpts())
	for _, op := range ops[:n] {
		applyCrashOp(ref, op, pts)
	}
	return ref
}

// servingEqual reports whether two indexes serve identically (live count,
// candidate stream per probe, tombstones, stored points).
func servingEqual(want, got *ShardedIndex[[]float64]) bool {
	if want.Len() != got.Len() || idBound(want) != idBound(got) {
		return false
	}
	for _, q := range recoverQueries(12) {
		if !reflect.DeepEqual(want.CollectDistinct(q, 0), got.CollectDistinct(q, 0)) {
			return false
		}
	}
	for id := 0; id < idBound(want); id++ {
		if want.Deleted(id) != got.Deleted(id) {
			return false
		}
		if !want.Deleted(id) && !reflect.DeepEqual(want.Point(id), got.Point(id)) {
			return false
		}
	}
	return true
}

// topCrossings is how often creating a store crosses each fault point
// before its first shard is touched: the top-level manifest commit.
func topCrossings(t *testing.T) map[string]int {
	t.Helper()
	trace := durable.Trace()
	env, err := durable.OpenEnv(t.TempDir(), durable.Options{Hooks: trace})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.WriteManifest(&durable.Manifest{L: crashL, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, p := range trace.Crossings() {
		counts[p]++
	}
	return counts
}

// crashTrace runs the whole script (including Close) on a traced durable
// index and returns how often it crossed each fault point.
func crashTrace(t *testing.T, ops []crashOp, pts [][]float64) map[string]int {
	t.Helper()
	trace := durable.Trace()
	dx, err := NewDurableSharded[[]float64](t.TempDir(), crashSeed, dynamicFamily(), crashL, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: crashDynOpts()}, durable.Options{Fsync: durable.FsyncAlways, Hooks: trace})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyCrashOp(dx, op, pts)
	}
	dx.Close()
	counts := map[string]int{}
	for _, p := range trace.Crossings() {
		counts[p]++
	}
	return counts
}

// TestCrashMatrixRecovery is the fault-interleaving acceptance test: for
// every fault point the workload actually crosses, at the first, a middle
// and the last occurrence, kill the store at that exact syscall and prove
// recovery lands on the acked op prefix.
func TestCrashMatrixRecovery(t *testing.T) {
	ops, pts := crashScript()

	// Trace pass: enumerate the real fault surface of this workload
	// instead of guessing point names. The cases below replay it by
	// occurrence number, so the crossing counts must be a function of the
	// op sequence alone: a second pass must reproduce them exactly.
	counts := crashTrace(t, ops, pts)
	if again := crashTrace(t, ops, pts); !reflect.DeepEqual(counts, again) {
		t.Fatalf("fault-point crossings differ between identical runs: %v vs %v", counts, again)
	}
	if len(counts) < 8 {
		t.Fatalf("workload crossed only %d fault points (%v); fixture too shallow", len(counts), counts)
	}

	// Occurrences are numbered over the shard's store, after the top-level
	// manifest commit; a fault inside that commit can only fail store
	// creation, and each of its crossings gets a case of its own.
	top := topCrossings(t)
	for point, n := range top {
		for occ := 0; occ < n; occ++ {
			t.Run(fmt.Sprintf("top:%s#%d", point, occ), func(t *testing.T) {
				runCrashCase(t, point, occ, ops, pts)
			})
		}
	}
	for point, total := range counts {
		total -= top[point]
		occs := []int{0, total / 2, total - 1}
		seen := map[int]bool{}
		for _, occ := range occs {
			if occ < 0 || seen[occ] {
				continue
			}
			seen[occ] = true
			t.Run(fmt.Sprintf("%s#%d", point, occ), func(t *testing.T) {
				runCrashCase(t, point, top[point]+occ, ops, pts)
			})
		}
	}
}

// runCrashCase fails the store at the given crossing of point, counted
// from store creation, and checks what recovery makes of it.
func runCrashCase(t *testing.T, point string, occ int, ops []crashOp, pts [][]float64) {
	dir := t.TempDir()
	hooks := durable.FailAt(map[string]int{point: occ})
	dx, err := NewDurableSharded[[]float64](dir, crashSeed, dynamicFamily(), crashL, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: crashDynOpts()}, durable.Options{Fsync: durable.FsyncAlways, Hooks: hooks})
	if err != nil {
		// The fault hit store creation itself: the caller got an error, so
		// nothing was ever acknowledged and there is nothing to recover.
		return
	}
	crashedAt := -1
	for k, op := range ops {
		applyCrashOp(dx, op, pts)
		if dx.DurableErr() != nil {
			crashedAt = k
			break
		}
	}
	if crashedAt == -1 {
		dx.Close()
		if err := dx.DurableErr(); err != nil {
			// The fault fired inside Close's final checkpoint; the WAL still
			// holds every op, so recovery must land on the full script.
			crashedAt = len(ops)
		}
	} else {
		// The process is "dead": a few more mutations land in memory only and
		// must leave no trace on disk.
		for _, op := range ops[crashedAt+1 : min(crashedAt+4, len(ops))] {
			applyCrashOp(dx, op, pts)
		}
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		crashDynOpts(), durable.Options{})
	if err != nil {
		t.Fatalf("recovery failed after fault at %s#%d: %v", point, occ, err)
	}
	defer rx.Close()

	if crashedAt == -1 {
		if ref := crashReference(len(ops), ops, pts); !servingEqual(ref, rx) {
			t.Fatalf("clean-close recovery diverged from full replay (fault at %s#%d never fired mid-run)", point, occ)
		}
		return
	}
	// The crashing op's WAL record either reached the file (state k+1) or
	// did not (state k); both are legitimate kill outcomes.
	upper := min(crashedAt+1, len(ops))
	if ref := crashReference(upper, ops, pts); servingEqual(ref, rx) {
		return
	}
	if ref := crashReference(crashedAt, ops, pts); servingEqual(ref, rx) {
		return
	}
	t.Fatalf("fault at %s#%d (op %d): recovered state matches neither ops[:%d] nor ops[:%d]",
		point, occ, crashedAt, upper, crashedAt)
}

// TestCrashBitFlipSegmentDetected flips one bit inside a committed
// segment file: recovery must refuse the store with ErrCorrupt rather
// than serve silently wrong candidates.
func TestCrashBitFlipSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	pts := workload.SpherePoints(xrand.New(713), 100, testDim)
	dx, err := NewDurableSharded[[]float64](dir, 61, dynamicFamily(), crashL, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 16}}, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		dx.Insert(p)
	}
	dx.Close()

	segs, err := filepath.Glob(filepath.Join(dir, shardDirName(0), "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files after close (err %v)", err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.FlipBit(segs[0], info.Size()/2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{}, durable.Options{}); err == nil {
		t.Fatal("recovery accepted a bit-flipped segment file")
	}
}

// TestCrashBitFlipWALTruncates flips one bit inside the last WAL record:
// replay must truncate at the damaged record — recovering every earlier
// op — instead of failing or serving the corrupt row.
func TestCrashBitFlipWALTruncates(t *testing.T) {
	dir := t.TempDir()
	const n = 50
	pts := workload.SpherePoints(xrand.New(715), n, testDim)
	dx, err := NewDurableSharded[[]float64](dir, 67, dynamicFamily(), crashL, durable.Float64Codec{},
		ShardOptions{Shards: 1, Dynamic: DynamicOptions{MemtableThreshold: 1024}}, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		dx.Insert(p)
	}
	// No Close: all n rows live in the shard's wal-00000001.log only.
	wal := filepath.Join(dir, shardDirName(0), durable.WALName(1))
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := durable.FlipBit(wal, info.Size()-5, 2); err != nil {
		t.Fatal(err)
	}

	rx, err := OpenSharded[[]float64](dir, dynamicFamily(), durable.Float64Codec{},
		DynamicOptions{}, durable.Options{})
	if err != nil {
		t.Fatalf("recovery failed on bit-flipped WAL tail: %v", err)
	}
	defer rx.Close()
	if rx.Len() != n-1 {
		t.Fatalf("recovered %d rows, want %d (last record truncated)", rx.Len(), n-1)
	}
	ref := newOneShard[[]float64](xrand.New(67), dynamicFamily(), crashL, nil, DynamicOptions{MemtableThreshold: 1024})
	for _, p := range pts[:n-1] {
		ref.Insert(p)
	}
	if !servingEqual(ref, rx) {
		t.Fatal("truncated-tail recovery diverged from the n-1 prefix")
	}
}
