package index

import (
	"reflect"
	"testing"

	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestQueryBatchSignedMatchesQueryBatch pins the signed batch path to the
// plain one over one ShardedSnapshot: for a 1-query batch (below the
// pre-hash minimum, so only the signed path builds a key block) and a
// 16-query batch, with and without MaxCandidates truncation, ids and
// per-query stats are identical. A vector that appears twice gets equal
// signatures, within one batch and across batches.
func TestQueryBatchSignedMatchesQueryBatch(t *testing.T) {
	rng := xrand.New(61)
	pts := workload.SpherePoints(rng, 600, testDim)
	sx := NewSharded(xrand.New(62), sphere.FastCrossPolytope(testDim), 12, pts[:400],
		ShardOptions{Shards: 3, Dynamic: DynamicOptions{MemtableThreshold: 64}})
	defer sx.Close()
	for _, p := range pts[400:] {
		sx.Insert(p)
	}
	for id := 0; id < len(pts); id += 9 {
		sx.Delete(id)
	}
	snap := sx.Snapshot()
	defer snap.Release()

	queries := append(workload.SpherePoints(rng, 12, testDim), pts[10], pts[20], pts[30])
	queries = append(queries, queries[3])
	const max = 5
	truncated := false
	for _, n := range []int{1, len(queries)} {
		for _, m := range []int{0, max} {
			opts := BatchOptions{Workers: 3, MaxCandidates: m}
			got, sigs, gotPer, _ := snap.QueryBatchSigned(queries[:n], opts)
			want, wantPer, _ := snap.QueryBatch(queries[:n], opts)
			if len(sigs) != n {
				t.Fatalf("n=%d max=%d: %d signatures", n, m, len(sigs))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d max=%d: signed ids differ from QueryBatch", n, m)
			}
			for i := range want {
				if !statsEqualIgnoringLatency(gotPer[i], wantPer[i]) {
					t.Fatalf("n=%d max=%d query %d: signed stats %+v != %+v", n, m, i, gotPer[i], wantPer[i])
				}
				truncated = truncated || (m > 0 && len(want[i]) == m)
			}
		}
	}
	if !truncated {
		t.Fatal("MaxCandidates never truncated a result; the truncated case is untested")
	}

	_, sigs, _, _ := snap.QueryBatchSigned(queries, BatchOptions{})
	if sigs[3] != sigs[len(queries)-1] {
		t.Fatalf("repeated vector: signatures %x and %x differ within one batch", sigs[3], sigs[len(queries)-1])
	}
	_, one, _, _ := snap.QueryBatchSigned(queries[3:4], BatchOptions{})
	if one[0] != sigs[3] {
		t.Fatalf("repeated vector: signature %x alone != %x in a batch", one[0], sigs[3])
	}
}
