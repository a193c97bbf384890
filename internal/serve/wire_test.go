package serve

import (
	"math"
	"net/http"
	"testing"

	"dsh/internal/index"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// TestServeWireValidation drives every malformed-input class through the
// real handlers and checks both the status code and that no in-flight
// budget slot leaked — the invariant the fuzz harness extends to
// arbitrary bytes.
func TestServeWireValidation(t *testing.T) {
	ix, _ := newKeyedIndex(t, 30)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim, ShedDepth: 4, MaxBodyBytes: 1 << 14})
	defer srv.Close()
	h := srv.Handler()

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", "/v1/query", `{"vector":`, http.StatusBadRequest},
		{"trailing garbage", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12]} extra`, http.StatusBadRequest},
		{"wrong shape", "/v1/query", `{"vector":"not an array"}`, http.StatusBadRequest},
		{"empty vector", "/v1/query", `{"vector":[]}`, http.StatusBadRequest},
		{"missing vector", "/v1/query", `{}`, http.StatusBadRequest},
		{"dim mismatch short", "/v1/query", `{"vector":[1,2,3]}`, http.StatusBadRequest},
		{"dim mismatch long", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12,13]}`, http.StatusBadRequest},
		{"overflow to inf", "/v1/query", `{"vector":[1e999,2,3,4,5,6,7,8,9,10,11,12]}`, http.StatusBadRequest},
		{"negative max", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12],"max":-1}`, http.StatusBadRequest},
		{"empty batch", "/v1/querybatch", `{"vectors":[]}`, http.StatusBadRequest},
		{"oversized batch", "/v1/querybatch",
			`{"vectors":[[1,2,3,4,5,6,7,8,9,10,11,12],[1,2,3,4,5,6,7,8,9,10,11,12],[1,2,3,4,5,6,7,8,9,10,11,12],[1,2,3,4,5,6,7,8,9,10,11,12],[1,2,3,4,5,6,7,8,9,10,11,12]]}`,
			http.StatusRequestEntityTooLarge},
		{"batch bad member", "/v1/querybatch", `{"vectors":[[1,2,3]]}`, http.StatusBadRequest},
		{"keyed insert without key", "/v1/insert", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12]}`, http.StatusBadRequest},
		{"insert zero-length vector", "/v1/insert", `{"key":1,"vector":[]}`, http.StatusBadRequest},
		{"delete with both key and id", "/v1/delete", `{"key":1,"id":2}`, http.StatusBadRequest},
		{"delete with neither", "/v1/delete", `{}`, http.StatusBadRequest},
		{"keyed delete by id", "/v1/delete", `{"id":3}`, http.StatusBadRequest},
		{"unknown endpoint", "/v1/nope", `{}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doRaw(t, h, http.MethodPost, tc.path, []byte(tc.body))
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.want, rr.Body.String())
			}
		})
	}

	// Wrong method on a POST route.
	rr := doRaw(t, h, http.MethodGet, "/v1/query", nil)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", rr.Code)
	}

	// Body over MaxBodyBytes trips the MaxBytesReader mid-decode.
	big := make([]byte, 1<<15)
	for i := range big {
		big[i] = '1'
	}
	rr = doRaw(t, h, http.MethodPost, "/v1/query", append([]byte(`{"vector":[`), big...))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rr.Code)
	}

	if n := srv.adm.inFlight(); n != 0 {
		t.Fatalf("%d in-flight budget slots leaked across rejected requests", n)
	}
}

// TestServeWireValidationRoundRobin covers the routing-variant rejections
// only a round-robin index produces.
func TestServeWireValidationRoundRobin(t *testing.T) {
	ix := index.NewSharded[[]float64](xrand.New(451), testFamily(), testL,
		workload.SpherePoints(xrand.New(452), 10, testDim),
		index.ShardOptions{Shards: 2})
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim})
	defer srv.Close()
	h := srv.Handler()

	cases := []struct {
		name string
		path string
		body string
	}{
		{"rr insert with key", "/v1/insert", `{"key":7,"vector":[1,2,3,4,5,6,7,8,9,10,11,12]}`},
		{"rr delete by key", "/v1/delete", `{"key":7}`},
		{"negative id", "/v1/delete", `{"id":-4}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doRaw(t, h, http.MethodPost, tc.path, []byte(tc.body))
			if rr.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", rr.Code, rr.Body.String())
			}
		})
	}
	if n := srv.adm.inFlight(); n != 0 {
		t.Fatalf("%d in-flight budget slots leaked", n)
	}
}

// TestCheckVector unit-tests the validator on inputs JSON itself cannot
// produce (NaN, Inf) so the non-finite branch is pinned even though the
// wire can only reach it through decoded infinities.
func TestCheckVector(t *testing.T) {
	if err := checkVector([]float64{1, math.NaN()}, 2); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := checkVector([]float64{math.Inf(1), 0}, 2); err == nil {
		t.Fatal("+Inf accepted")
	}
	if err := checkVector([]float64{1, 2}, 3); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if err := checkVector(nil, 3); err == nil {
		t.Fatal("nil vector accepted")
	}
	if err := checkVector([]float64{1, 2, 3}, 3); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}
}
