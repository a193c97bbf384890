package index

import (
	"testing"

	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestReproGCHoleRenumbering is the regression test for the leveled-GC
// id-hole bug: an upper-level fold used to drop a tombstoned row from the
// merged tables without renumbering, so the following bottom-level GC saw
// dropped == 0 yet still shifted every higher id — leaving the external
// key table pointing one past the dense id space and making Point panic.
// Upper folds are now strictly id-preserving (dead rows live until the
// bottom fold) and the GC remaps the key table whenever ids shift, not
// only when the fold itself dropped rows.
func TestReproGCHoleRenumbering(t *testing.T) {
	rng := xrand.New(99)
	pts := workload.SpherePoints(rng, 12, testDim)
	dx := NewSharded(xrand.New(7), dynamicFamily(), 8, nil, ShardOptions{Shards: 1, Routing: RouteHash, Dynamic: DynamicOptions{
		MemtableThreshold: 4,
		Policy:            CompactLeveled,
	}})
	for i, p := range pts {
		dx.InsertKeyed(uint64(i), p)
	}
	if got := dx.Segments(); got != 3 {
		t.Fatalf("segments = %d, want 3", got)
	}
	// Tombstone a row in an upper segment, then fold the upper level:
	// the dead row is dropped from the tables, id space keeps a hole.
	dx.DeleteKeyed(5)
	if !dx.shards[0].compactUpperStep() {
		t.Fatal("upper step did not merge")
	}
	epochBefore := dx.Epoch()
	dx.Compact() // leveled GC: dropped==0 but delta==-1
	t.Logf("epoch before=%d after=%d", epochBefore, dx.Epoch())
	id, ok := dx.LookupKey(11)
	if !ok {
		t.Fatal("key 11 lost")
	}
	t.Logf("LookupKey(11) = %d, Len = %d", id, dx.Len())
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Point(%d) panicked: %v", id, r)
		}
	}()
	p := dx.Point(id)
	if p[0] != pts[11][0] {
		t.Fatalf("key 11 resolves to wrong point: id %d", id)
	}
}
