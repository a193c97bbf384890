package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

const testDim = 12

func testFamily() core.Family[[]float64] {
	return core.Power[[]float64](sphere.SimHash(testDim), 4)
}

const testL = 8

// newKeyedIndex builds a hash-routed sharded index with n preloaded keyed
// points (key i holds pts[i]). Background compaction stays off so that
// index structure is a pure function of the mutation history: two
// snapshots at equal epochs are then bit-identical, which the
// differential tests rely on.
func newKeyedIndex(t testing.TB, n int) (*index.ShardedIndex[[]float64], [][]float64) {
	t.Helper()
	return newKeyedIndexWith(t, n, index.DynamicOptions{MemtableThreshold: 64, Policy: index.CompactLeveled})
}

// newKeyedIndexWith is newKeyedIndex over the given per-shard options.
func newKeyedIndexWith(t testing.TB, n int, dyn index.DynamicOptions) (*index.ShardedIndex[[]float64], [][]float64) {
	t.Helper()
	ix := index.NewSharded[[]float64](xrand.New(401), testFamily(), testL, nil, index.ShardOptions{
		Shards:  3,
		Routing: index.RouteHash,
		Dynamic: dyn,
	})
	pts := workload.SpherePoints(xrand.New(402), n, testDim)
	for i, p := range pts {
		ix.InsertKeyed(uint64(i), p)
	}
	return ix, pts
}

func postJSON(t testing.TB, client *http.Client, url string, body any) (int, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func wireQuery(t testing.TB, client *http.Client, base string, vec []float64) queryResponse {
	t.Helper()
	code, body := postJSON(t, client, base+"/v1/query", queryRequest{Vector: vec})
	if code != http.StatusOK {
		t.Fatalf("query: status %d body %s", code, body)
	}
	var qr queryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatalf("unmarshal query response: %v", err)
	}
	return qr
}

// TestServeEndToEndDifferentialUnderChurn is the race-run harness: a real
// dshserve handler on a loopback listener takes concurrent keyed inserts,
// deletes, single queries and batch queries while a snapshotter churns
// epoch barriers — and every wire result whose reported epoch matches a
// freshly pinned snapshot must be bit-identical to the in-process
// QueryBatch over that snapshot. A final quiesced phase asserts the same
// for every probe vector and for the /v1/querybatch endpoint.
//
// It runs twice. With compaction off, index structure is a pure function
// of the mutation history. Under the served store's options, with a
// memtable small enough that background merges land while the writers
// run, the churn continues until several merges have; merges keep every
// id and the candidate order, so the epoch-matched comparisons must still
// hold.
func TestServeEndToEndDifferentialUnderChurn(t *testing.T) {
	t.Run("compaction-off", func(t *testing.T) {
		ix, _ := newKeyedIndex(t, 300)
		defer ix.Close()
		churnDifferential(t, ix, false)
	})
	t.Run("served-store", func(t *testing.T) {
		dyn := StoreOptions()
		dyn.MemtableThreshold = 16
		ix, _ := newKeyedIndexWith(t, 300, dyn)
		defer ix.Close()
		churnDifferential(t, ix, true)
	})
}

// churnDifferential runs the churn and quiesced phases of
// TestServeEndToEndDifferentialUnderChurn over ix. With compacting set,
// the churn lasts until the background compactor has merged at least
// churnMerges times (failing after 20 s), and the quiesced phase starts
// with an explicit Compact, so its answers come from one settled segment
// per shard.
func churnDifferential(t *testing.T, ix *index.ShardedIndex[[]float64], compacting bool) {
	const churnMerges = 10
	before := obs.Default.Snapshot()
	srv := New(ix, Options{
		Dim:       testDim,
		BatchSize: 8,
		Workers:   4,
		// Room for the 50-vector querybatch below the shed watermark.
		QueueDepth: 256,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	probes := workload.SpherePoints(xrand.New(403), 50, testDim)
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		matched atomic.Int64 // epoch-matched differential comparisons
	)

	// Writers: keyed upserts and deletes over a small key space through
	// the wire, so routing validation is exercised end to end.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			vecs := workload.SpherePoints(xrand.New(seed+100), 64, testDim)
			for i := 0; !stop.Load(); i++ {
				key := rng.Uint64() % 100
				if i%5 == 4 {
					code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/delete", deleteRequest{Key: &key})
					if code != http.StatusOK {
						t.Errorf("delete: status %d", code)
						return
					}
				} else {
					code, _ := postJSON(t, ts.Client(), ts.URL+"/v1/insert",
						insertRequest{Key: &key, Vector: vecs[i%len(vecs)]})
					if code != http.StatusOK {
						t.Errorf("insert: status %d", code)
						return
					}
				}
			}
		}(500 + uint64(w))
	}

	// Queriers: single wire queries, opportunistically differential. When
	// a freshly pinned snapshot has the same epoch the wire response was
	// served at, no mutation landed in between — the in-process result
	// must match exactly.
	for q := 0; q < 4; q++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for !stop.Load() {
				vec := probes[rng.Uint64()%uint64(len(probes))]
				qr := wireQuery(t, ts.Client(), ts.URL, vec)
				snap := ix.Snapshot()
				if snap.Epoch() == qr.Epoch {
					want, _, _ := snap.QueryBatch([][]float64{vec}, index.BatchOptions{})
					if !sameIDs(qr.IDs, want[0]) {
						t.Errorf("epoch %d: wire %v != in-process %v", qr.Epoch, qr.IDs, want[0])
						snap.Release()
						return
					}
					matched.Add(1)
				}
				snap.Release()
			}
		}(600 + uint64(q))
	}

	// Snapshotter: epoch barriers under churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := ix.Snapshot()
			if snap.Len() < 0 {
				t.Error("negative snapshot length")
			}
			snap.Release()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	if compacting {
		deadline := time.Now().Add(20 * time.Second)
		for counterDelta(before, "dsh_compactions_all_total") < churnMerges &&
			time.Now().Before(deadline) && !t.Failed() {
			time.Sleep(10 * time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	t.Logf("during-churn epoch-matched comparisons: %d", matched.Load())
	if compacting {
		merges := counterDelta(before, "dsh_compactions_all_total")
		t.Logf("background merges during churn: %d", merges)
		if merges < churnMerges {
			t.Fatalf("churn ended after %d background merges, want at least %d", merges, churnMerges)
		}
		ix.Compact()
	}

	// Quiesced phase: no writers, so every wire answer must be at the
	// live epoch and bit-identical to the in-process result.
	snap := ix.Snapshot()
	defer snap.Release()
	want, _, _ := snap.QueryBatch(probes, index.BatchOptions{})
	for i, vec := range probes {
		qr := wireQuery(t, ts.Client(), ts.URL, vec)
		if qr.Epoch != snap.Epoch() {
			t.Fatalf("quiesced query at epoch %d, want %d", qr.Epoch, snap.Epoch())
		}
		if !sameIDs(qr.IDs, want[i]) {
			t.Fatalf("probe %d: wire %v != in-process %v", i, qr.IDs, want[i])
		}
	}

	// And the batch endpoint in one shot.
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/querybatch", batchRequest{Vectors: probes})
	if code != http.StatusOK {
		t.Fatalf("querybatch: status %d body %s", code, body)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("unmarshal batch response: %v", err)
	}
	if br.Epoch != snap.Epoch() {
		t.Fatalf("batch served at epoch %d, want %d", br.Epoch, snap.Epoch())
	}
	for i := range probes {
		if !sameIDs(br.Results[i], want[i]) {
			t.Fatalf("batch probe %d: wire %v != in-process %v", i, br.Results[i], want[i])
		}
	}
}

// sameIDs compares a wire id list ([] for empty) with an in-process one
// (possibly nil) element for element, order included.
func sameIDs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestServeRoundRobinMutations covers the unkeyed routing variant: plain
// inserts and deletes by id over the wire against a round-robin index.
func TestServeRoundRobinMutations(t *testing.T) {
	ix := index.NewSharded[[]float64](xrand.New(411), testFamily(), testL,
		workload.SpherePoints(xrand.New(412), 50, testDim),
		index.ShardOptions{Shards: 2, Dynamic: index.DynamicOptions{MemtableThreshold: 32}})
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	vec := workload.SpherePoints(xrand.New(413), 1, testDim)[0]
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/insert", insertRequest{Vector: vec})
	if code != http.StatusOK {
		t.Fatalf("insert: status %d body %s", code, body)
	}
	var ir insertResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatalf("unmarshal insert response: %v", err)
	}
	if ir.ID != 50 {
		t.Fatalf("inserted id %d, want 50", ir.ID)
	}
	id := int64(ir.ID)
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/delete", deleteRequest{ID: &id})
	if code != http.StatusOK {
		t.Fatalf("delete: status %d body %s", code, body)
	}
	var dr deleteResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("unmarshal delete response: %v", err)
	}
	if !dr.Deleted {
		t.Fatal("delete reported Deleted=false for a live id")
	}
	if ix.Deleted(int(id)) != true {
		t.Fatal("id not tombstoned in the index")
	}
}

// TestServeHealthz covers the liveness endpoint through both lifecycle
// states.
func TestServeHealthz(t *testing.T) {
	ix, _ := newKeyedIndex(t, 20)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while drained: status %d, want 503", resp.StatusCode)
	}
}

// TestServeBatchLimitIsShedDepth pins the per-request batch limit at
// default options: a /v1/querybatch of ShedDepth vectors is parked whole
// and answered on an idle server, and one vector more is refused at
// decode with 413, since it could never be parked under the watermark.
// Every vector is fresh, so no batch is shortened by cache hits.
func TestServeBatchLimitIsShedDepth(t *testing.T) {
	ix, _ := newKeyedIndex(t, 20)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	limit := srv.opts.ShedDepth
	vecs := workload.SpherePoints(xrand.New(403), 2*limit+1, testDim)
	code, body := postJSON(t, ts.Client(), ts.URL+"/v1/querybatch", batchRequest{Vectors: vecs[:limit]})
	if code != http.StatusOK {
		t.Fatalf("batch of ShedDepth=%d vectors: status %d, want 200", limit, code)
	}
	var resp batchResponse
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Results) != limit {
		t.Fatalf("batch response: %d results, err %v", len(resp.Results), err)
	}
	code, body = postJSON(t, ts.Client(), ts.URL+"/v1/querybatch", batchRequest{Vectors: vecs[limit:]})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("batch of ShedDepth+1=%d vectors: status %d (%.80s), want 413", limit+1, code, body)
	}
}

// TestServeDurableFault pins that the edge never acknowledges a write the
// durable store failed to journal: once a WAL sync fails, inserts and
// deletes answer 503 with the cause and /healthz turns unhealthy, while
// queries keep answering from memory.
func TestServeDurableFault(t *testing.T) {
	// The first WAL sync passes; the second fails and latches the fault.
	ix, err := index.NewDurableSharded(t.TempDir(), 401, testFamily(), testL, durable.Float64Codec{},
		index.ShardOptions{Shards: 2, Routing: index.RouteHash},
		durable.Options{Hooks: durable.FailAt(map[string]int{"wal:sync": 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	healthz := func() int {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	vecs := workload.SpherePoints(xrand.New(451), 2, testDim)
	keys := []uint64{1, 2}

	if code, body := postJSON(t, ts.Client(), ts.URL+"/v1/insert", insertRequest{Key: &keys[0], Vector: vecs[0]}); code != http.StatusOK {
		t.Fatalf("insert before the fault: status %d body %s", code, body)
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthz before the fault: status %d", code)
	}
	for path, req := range map[string]any{
		"/v1/insert": insertRequest{Key: &keys[1], Vector: vecs[1]},
		"/v1/delete": deleteRequest{Key: &keys[0]},
	} {
		code, body := postJSON(t, ts.Client(), ts.URL+path, req)
		if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("injected fault")) {
			t.Fatalf("%s after the fault: status %d body %s, want 503 naming the fault", path, code, body)
		}
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with a latched fault: status %d, want 503", code)
	}
	wireQuery(t, ts.Client(), ts.URL, vecs[1]) // queries still answer from memory
}

// TestServeMetricsMounted asserts the obshttp plane is reachable on the
// serving mux and carries the dsh_serve_* series.
func TestServeMetricsMounted(t *testing.T) {
	ix, _ := newKeyedIndex(t, 20)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wireQuery(t, ts.Client(), ts.URL, workload.SpherePoints(xrand.New(414), 1, testDim)[0])
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	for _, series := range []string{"dsh_serve_requests_total", "dsh_serve_queries_total", "dsh_serve_batches_total", "dsh_serve_segments"} {
		if !bytes.Contains(body, []byte(series)) {
			t.Fatalf("/metrics missing %s", series)
		}
	}
}

// doRaw drives the handler directly for tests that only care about
// status codes.
func doRaw(t testing.TB, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}
