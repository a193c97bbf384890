package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"dsh/internal/core"
	"dsh/internal/index"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// fuzzDim is deliberately small so random JSON has a fighting chance of
// producing a valid vector and exercising the accept paths too.
const fuzzDim = 4

// FuzzWireDecode throws arbitrary bytes at every request decoder: the
// only acceptable outcomes are a nil error or a wireError with a 4xx
// status — never a panic, never a 5xx classification.
func FuzzWireDecode(f *testing.F) {
	f.Add(byte('q'), []byte(`{"vector":[1,2,3,4]}`))
	f.Add(byte('q'), []byte(`{"vector":[1,2,3,4],"max":2}`))
	f.Add(byte('q'), []byte(`{"vector":[]}`))
	f.Add(byte('q'), []byte(`{"vector":[1e999,0,0,0]}`))
	f.Add(byte('q'), []byte(`{"vector":[1,2]}`))
	f.Add(byte('b'), []byte(`{"vectors":[[1,2,3,4],[4,3,2,1]]}`))
	f.Add(byte('b'), []byte(`{"vectors":[]}`))
	f.Add(byte('b'), []byte(`{"vectors":[[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]}`))
	f.Add(byte('i'), []byte(`{"key":7,"vector":[1,2,3,4]}`))
	f.Add(byte('i'), []byte(`{"vector":[1,2,3,4]}`))
	f.Add(byte('d'), []byte(`{"key":7}`))
	f.Add(byte('d'), []byte(`{"id":3}`))
	f.Add(byte('d'), []byte(`{"key":7,"id":3}`))
	f.Add(byte('q'), []byte(`not json at all`))
	f.Add(byte('q'), []byte(`{"vector":[1,2,3,4]} trailing`))
	f.Add(byte('q'), []byte("{\"vector\":[\x00]}"))

	// Decoding only touches opts and the routing flag, so a bare Server
	// value suffices — no dispatcher, no index.
	keyedSrv := &Server{opts: Options{Dim: fuzzDim, ShedDepth: 8}.withDefaults(), keyed: true}
	rrSrv := &Server{opts: Options{Dim: fuzzDim, ShedDepth: 8}.withDefaults(), keyed: false}

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		for _, srv := range []*Server{keyedSrv, rrSrv} {
			var werr *wireError
			switch which % 4 {
			case 0:
				_, werr = srv.decodeQuery(bytes.NewReader(body))
			case 1:
				_, werr = srv.decodeBatch(bytes.NewReader(body))
			case 2:
				_, werr = srv.decodeInsert(bytes.NewReader(body))
			case 3:
				_, werr = srv.decodeDelete(bytes.NewReader(body))
			}
			if werr != nil && (werr.status < 400 || werr.status >= 500) {
				t.Fatalf("decoder classified %q as status %d, want 4xx", body, werr.status)
			}
		}
	})
}

// FuzzServeHTTP drives arbitrary bytes through the full HTTP stack — mux,
// admission, decode, coalescer, batch engine — and asserts the server
// neither panics, nor answers 500, nor leaks an in-flight budget slot.
func FuzzServeHTTP(f *testing.F) {
	f.Add(byte('q'), []byte(`{"vector":[1,2,3,4]}`))
	f.Add(byte('b'), []byte(`{"vectors":[[1,2,3,4]],"max":3}`))
	f.Add(byte('i'), []byte(`{"key":9,"vector":[0.5,0.5,0.5,0.5]}`))
	f.Add(byte('d'), []byte(`{"key":9}`))
	f.Add(byte('q'), []byte(`{"vector":[1,2,3]}`))
	f.Add(byte('q'), []byte(`garbage`))
	f.Add(byte('h'), []byte(``))
	f.Add(byte('m'), []byte(``))

	fam := core.Power[[]float64](sphere.SimHash(fuzzDim), 4)
	ix := index.NewSharded[[]float64](xrand.New(471), fam, 4, nil,
		index.ShardOptions{Shards: 2, Routing: index.RouteHash})
	for i, p := range workload.SpherePoints(xrand.New(472), 50, fuzzDim) {
		ix.InsertKeyed(uint64(i), p)
	}
	srv := New(ix, Options{Dim: fuzzDim, ShedDepth: 8, MaxBodyBytes: 1 << 16, Workers: 1})
	f.Cleanup(func() {
		_ = srv.Close()
		ix.Close()
	})
	paths := map[byte]string{
		'q': "/v1/query",
		'b': "/v1/querybatch",
		'i': "/v1/insert",
		'd': "/v1/delete",
		'h': "/healthz",
		'm': "/metrics",
	}

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		path, ok := paths[which]
		if !ok {
			path = "/v1/query"
		}
		method := http.MethodPost
		if which == 'h' || which == 'm' {
			method = http.MethodGet
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, req)
		if rr.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s with %q answered 500: %s", method, path, body, rr.Body.String())
		}
		if n := srv.adm.inFlight(); n != 0 {
			t.Fatalf("%d in-flight budget slots leaked after %s %s %q", n, method, path, body)
		}
	})
}
