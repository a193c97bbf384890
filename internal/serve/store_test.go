package serve

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// segmentsPerShard bounds the frozen segments of one served shard once
// its compactor has caught up: the default MaxSegments (8), plus the
// merged segment and one freeze the compactor has not yet folded.
const segmentsPerShard = 8 + 2

// settleSegments waits until the index's segment count is at most bound.
// Merges run on the shards' own goroutines, so a count read right after a
// freeze can be high for a moment; it fails the test if the count has not
// come down within 10 s.
func settleSegments(t *testing.T, ix *index.ShardedIndex[[]float64], bound int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := ix.Segments()
		if n <= bound {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d segments 10 s after the last write, want at most %d", n, bound)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// postOK sends one request through the handler and decodes its 200 reply
// into out.
func postOK(t *testing.T, h http.Handler, path string, body, out any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rr := doRaw(t, h, http.MethodPost, path, buf)
	if rr.Code != http.StatusOK {
		t.Fatalf("%s: status %d body %s", path, rr.Code, rr.Body.Bytes())
	}
	if err := json.Unmarshal(rr.Body.Bytes(), out); err != nil {
		t.Fatalf("%s: decode reply: %v", path, err)
	}
}

// counterDelta reads a process-wide counter's advance since before.
func counterDelta(before obs.Snapshot, name string) uint64 {
	return obs.Default.Snapshot().Counters[name] - before.Counters[name]
}

// TestServeStoreUpsertsAddNoPermanentSegments pins that a write followed
// by a query does not leave a permanent segment under StoreOptions: every
// /v1/query after an upsert refreshes the serving snapshot, which freezes
// the upsert into its own segment, and the background compactor must fold
// those away so the count stays under a bound that does not grow with the
// write count. Merges never renumber ids, so each upsert's reply id must
// still be the key's id after them, and the next query, for the upserted
// vector itself, must return it.
func TestServeStoreUpsertsAddNoPermanentSegments(t *testing.T) {
	const shards, preload, writes = 2, 2000, 3000
	ix := index.NewSharded[[]float64](xrand.New(421), testFamily(), testL, nil, index.ShardOptions{
		Shards: shards, Routing: index.RouteHash, Dynamic: StoreOptions(),
	})
	defer ix.Close()
	for i, p := range workload.SpherePoints(xrand.New(422), preload, testDim) {
		ix.InsertKeyed(uint64(i), p)
	}
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	h := srv.Handler()

	before := obs.Default.Snapshot()
	vecs := workload.SpherePoints(xrand.New(423), writes, testDim)
	rng := xrand.New(424)
	bound := shards * segmentsPerShard
	peak := 0
	for i, v := range vecs {
		key := rng.Uint64() % preload
		var ir insertResponse
		postOK(t, h, "/v1/insert", insertRequest{Key: &key, Vector: v}, &ir)
		var qr queryResponse
		postOK(t, h, "/v1/query", queryRequest{Vector: v}, &qr)
		if id, ok := ix.LookupKey(key); !ok || id != ir.ID {
			t.Fatalf("write %d: key %d maps to id %d (found %v), but its upsert was acknowledged as id %d", i, key, id, ok, ir.ID)
		}
		if !slices.Contains(qr.IDs, ir.ID) {
			t.Fatalf("write %d: query for key %d's own vector misses its id %d", i, key, ir.ID)
		}
		peak = max(peak, ix.Segments())
		settleSegments(t, ix, bound)
	}
	merges := counterDelta(before, "dsh_compactions_all_total")
	renumberings := counterDelta(before, "dsh_compactions_gc_total")
	gc := ix.GCStats()
	t.Logf("%d upserts: peak %d segments, %d at the end; %d merges; %d live rows, %d dead rows in the tables, %d-byte tombstone bitmap",
		writes, peak, ix.Segments(), merges, gc.LiveRows, gc.DeadRows, gc.BitmapBytes)
	if merges == 0 {
		t.Fatal("the background compactor ran no merge")
	}
	if renumberings != 0 {
		t.Fatalf("%d merges renumbered ids under StoreOptions", renumberings)
	}
	if ix.Len() != preload {
		t.Fatalf("%d live points after upserts of preloaded keys, want %d", ix.Len(), preload)
	}
}

// TestServeStoreRoundRobinDeletesUnderCompaction is the round-robin
// counterpart: inserts and deletes by id through the wire, each followed
// by a query, under StoreOptions. The segment count stays bounded, the
// merges run, a deleted id is never returned, and every returned id still
// names the point it was acknowledged for — the merges never renumber an
// id a client may delete by.
func TestServeStoreRoundRobinDeletesUnderCompaction(t *testing.T) {
	const shards, preload, writes = 2, 2000, 3000
	pts := workload.SpherePoints(xrand.New(431), preload, testDim)
	// Ten concatenated SimHash bits per repetition: unrelated points rarely
	// collide, so each unbounded query returns a few ids to check one by one.
	fam := core.Power[[]float64](sphere.SimHash(testDim), 10)
	ix := index.NewSharded[[]float64](xrand.New(432), fam, testL, pts, index.ShardOptions{
		Shards: shards, Dynamic: StoreOptions(),
	})
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	h := srv.Handler()

	before := obs.Default.Snapshot()
	byID := slices.Clone(pts) // the point each acknowledged id names
	dead := make(map[int]bool)
	live := make([]int, preload)
	for i := range live {
		live[i] = i
	}
	vecs := workload.SpherePoints(xrand.New(433), writes, testDim)
	rng := xrand.New(434)
	bound := shards * segmentsPerShard
	peak, returned := 0, 0
	for i, v := range vecs {
		query, inserted := v, -1
		if i%2 == 0 {
			var ir insertResponse
			postOK(t, h, "/v1/insert", insertRequest{Vector: v}, &ir)
			inserted = ir.ID
			if ir.ID != len(byID) {
				t.Fatalf("write %d: insert acknowledged id %d, want the next dense id %d", i, ir.ID, len(byID))
			}
			byID = append(byID, v)
			live = append(live, ir.ID)
		} else {
			j := int(rng.Uint64() % uint64(len(live)))
			id := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			id64 := int64(id)
			var dr deleteResponse
			postOK(t, h, "/v1/delete", deleteRequest{ID: &id64}, &dr)
			if !dr.Deleted {
				t.Fatalf("write %d: delete of live id %d reported Deleted=false", i, id)
			}
			dead[id] = true
			query = byID[id] // its own vector collides in every repetition
		}
		var qr queryResponse
		postOK(t, h, "/v1/query", queryRequest{Vector: query}, &qr)
		if inserted >= 0 && !slices.Contains(qr.IDs, inserted) {
			t.Fatalf("write %d: query for the inserted vector misses its id %d", i, inserted)
		}
		for _, id := range qr.IDs {
			if dead[id] {
				t.Fatalf("write %d: query returned deleted id %d", i, id)
			}
			if !slices.Equal(ix.Point(id), byID[id]) {
				t.Fatalf("write %d: returned id %d no longer names the point it was acknowledged for", i, id)
			}
		}
		returned += len(qr.IDs)
		peak = max(peak, ix.Segments())
		settleSegments(t, ix, bound)
	}
	merges := counterDelta(before, "dsh_compactions_all_total")
	t.Logf("%d writes: peak %d segments, %d at the end; %d merges; %d ids returned and checked",
		writes, peak, ix.Segments(), merges, returned)
	if merges == 0 {
		t.Fatal("the background compactor ran no merge")
	}
	if returned == 0 {
		t.Fatal("no query returned an id, so nothing was checked")
	}
	if ix.Len() != preload { // every insert was matched by a delete
		t.Fatalf("%d live points, want %d", ix.Len(), preload)
	}
}
