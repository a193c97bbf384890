package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// Decoder selectors of FuzzWireDecode: its which argument, taken mod 4,
// picks the decoder.
const (
	decodeQuery byte = iota
	decodeBatch
	decodeInsert
	decodeDelete
)

// FuzzWireDecode throws arbitrary bytes at every request decoder: the
// only acceptable outcomes are a nil error or a wireError with a 4xx
// status — never a panic, never a 5xx classification.
func FuzzWireDecode(f *testing.F) {
	f.Add(decodeQuery, []byte(`{"vector":[1,2,3,4]}`))
	f.Add(decodeQuery, []byte(`{"vector":[1,2,3,4],"max":2}`))
	f.Add(decodeQuery, []byte(`{"vector":[]}`))
	f.Add(decodeQuery, []byte(`{"vector":[1e999,0,0,0]}`))
	f.Add(decodeQuery, []byte(`{"vector":[1,2]}`))
	f.Add(decodeBatch, []byte(`{"vectors":[[1,2,3,4],[4,3,2,1]]}`))
	f.Add(decodeBatch, []byte(`{"vectors":[]}`))
	f.Add(decodeBatch, []byte(`{"vectors":[[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4],[1,2,3,4]]}`))
	f.Add(decodeInsert, []byte(`{"key":7,"vector":[1,2,3,4]}`))
	f.Add(decodeInsert, []byte(`{"vector":[1,2,3,4]}`))
	f.Add(decodeDelete, []byte(`{"key":7}`))
	f.Add(decodeDelete, []byte(`{"id":3}`))
	f.Add(decodeDelete, []byte(`{"key":7,"id":3}`))
	f.Add(decodeQuery, []byte(`not json at all`))
	f.Add(decodeQuery, []byte(`{"vector":[1,2,3,4]} trailing`))
	f.Add(decodeQuery, []byte("{\"vector\":[\x00]}"))

	// Decoding only touches opts and the routing flag, so a bare Server
	// value suffices — no dispatcher, no index.
	keyedSrv := &Server{opts: Options{Dim: fuzzDim, ShedDepth: 8}.withDefaults(), keyed: true}
	rrSrv := &Server{opts: Options{Dim: fuzzDim, ShedDepth: 8}.withDefaults(), keyed: false}

	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		for _, srv := range []*Server{keyedSrv, rrSrv} {
			var werr *wireError
			switch which % 4 {
			case decodeQuery:
				_, werr = srv.decodeQuery(bytes.NewReader(body))
			case decodeBatch:
				_, werr = srv.decodeBatch(bytes.NewReader(body))
			case decodeInsert:
				_, werr = srv.decodeInsert(bytes.NewReader(body))
			case decodeDelete:
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

// FuzzWireDifferential holds the wire scanner to encoding/json, the
// decoder it replaced, on all four request shapes. The oracle decodes
// into the same request struct with unknown fields refused and nothing
// but whitespace allowed after the value. Every body the scanner accepts
// must decode to the oracle's values bit for bit; every body the oracle
// rejects must get a 4xx from the full decoder; and a body the oracle
// decodes may be refused by the scanner only for a field name that
// encoding/json matched by unescaping it or by case folding.
func FuzzWireDifferential(f *testing.F) {
	const (
		query byte = iota
		batch
		insert
		del
	)
	for _, seed := range []struct {
		which byte
		body  string
	}{
		{query, `{"vector":[1,2,3,4]}`},
		{query, `{"vector":[1,2,3,4],"max":2}`},
		{query, ` {"max":-0 , "vector" : [-0,1e-400,1.5E+3,0.1]}` + "\n"},
		{query, `{"vector":[1,2,3,4],"vector":[null,5]}`},
		{query, `{"vector":[1,2,3,4],"vector":[],"vector":[null,null,null,null]}`},
		{query, `{"vector":null,"max":null}`},
		{query, `null`},
		{query, `{"vector":[1,2,3,4]}}`},
		{query, `{"vector":[1,2,3,4],"maxx":5}`},
		{query, `{"vector":[1,2,3,4],"MAX":5}`},
		{query, `{"vec\u0074or":[1,2,3,4]}`},
		{query, `{"vector":[1e999,0,0,0]}`},
		{query, `{"vector":[01,2,3,4]}`},
		{batch, `{"vectors":[[1,2,3,4],[4,3,2,1]],"max":3}`},
		{batch, `{"vectors":[[1,2,3,4]],"vectors":[null,[9]]}`},
		{batch, `{"vectors":[]}`},
		{insert, `{"key":7,"vector":[1,2,3,4]}`},
		{insert, `{"key":7,"key":null,"vector":[1,2,3,4]}`},
		{insert, `{"key":-1,"vector":[1,2,3,4]}`},
		{del, `{"key":18446744073709551615}`},
		{del, `{"id":3}`},
		{del, `{"id":3,"ID":4}`},
		{del, `{"key":7,"id":3}`},
	} {
		f.Add(seed.which, []byte(seed.body))
	}
	for _, lit := range wireFloatLiterals {
		f.Add(query, []byte(`{"vector":[`+lit+`,0,0,1]}`))
	}

	srv := &Server{opts: Options{Dim: fuzzDim, ShedDepth: 8}.withDefaults(), keyed: true}
	f.Fuzz(func(t *testing.T, which byte, body []byte) {
		switch which % 4 {
		case query:
			differential(t, body, scanQuery, srv.decodeQuery, func(a, b queryRequest) bool {
				return sameFloats(a.Vector, b.Vector) && a.Max == b.Max
			}, "vector", "max")
		case batch:
			differential(t, body, scanBatch, srv.decodeBatch, func(a, b batchRequest) bool {
				if (a.Vectors == nil) != (b.Vectors == nil) || len(a.Vectors) != len(b.Vectors) || a.Max != b.Max {
					return false
				}
				for i := range a.Vectors {
					if !sameFloats(a.Vectors[i], b.Vectors[i]) {
						return false
					}
				}
				return true
			}, "vectors", "max")
		case insert:
			differential(t, body, scanInsert, srv.decodeInsert, func(a, b insertRequest) bool {
				return samePtr(a.Key, b.Key) && sameFloats(a.Vector, b.Vector)
			}, "key", "vector")
		case del:
			differential(t, body, scanDelete, srv.decodeDelete, func(a, b deleteRequest) bool {
				return samePtr(a.Key, b.Key) && samePtr(a.ID, b.ID)
			}, "key", "id")
		}
	})
}

// differential checks one body against the oracle; names are the
// shape's field names.
func differential[T any](t *testing.T, body []byte, scan func([]byte, int) (T, *wireError),
	decode func(io.Reader) (T, *wireError), same func(a, b T) bool, names ...string) {
	t.Helper()
	var want T
	oerr := oracleDecode(body, &want)
	got, serr := scan(body, fuzzDim)
	switch {
	case serr == nil && oerr != nil:
		t.Fatalf("scanner accepted %q, encoding/json rejected it: %v", body, oerr)
	case serr == nil && !same(got, want):
		t.Fatalf("%q: scanner decoded %+v, encoding/json %+v", body, got, want)
	case serr != nil && oerr == nil && !inexactName(serr, names):
		t.Fatalf("scanner refused %q (%s), encoding/json decoded it to %+v", body, serr.msg, want)
	}
	if _, werr := decode(bytes.NewReader(body)); oerr != nil && (werr == nil || werr.status/100 != 4) {
		t.Fatalf("encoding/json rejected %q (%v), decoder answered %v", body, oerr, werr)
	}
}

// oracleDecode is encoding/json with unknown fields refused and nothing
// but whitespace after the value.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("trailing data")
	}
	return nil
}

// inexactName reports whether werr refuses a field name that is escaped
// or matches one of names only when case is folded.
func inexactName(werr *wireError, names []string) bool {
	quoted, ok := strings.CutPrefix(werr.msg, "unknown field ")
	if !ok {
		return false
	}
	name, err := strconv.Unquote(quoted)
	if err != nil {
		return false
	}
	if strings.Contains(name, `\`) {
		return true
	}
	for _, n := range names {
		if name != n && strings.EqualFold(name, n) {
			return true
		}
	}
	return false
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func samePtr[T comparable](a, b *T) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}
