package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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
		{"trailing close brace", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12]}}`, http.StatusBadRequest},
		{"trailing close bracket", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12]}]`, http.StatusBadRequest},
		{"misspelt field", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12],"maxx":5}`, http.StatusBadRequest},
		{"field name case", "/v1/query", `{"vector":[1,2,3,4,5,6,7,8,9,10,11,12],"MAX":5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := doRaw(t, h, http.MethodPost, tc.path, []byte(tc.body))
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", rr.Code, tc.want, rr.Body.String())
			}
		})
	}

	// A misspelt bound is named, not silently dropped.
	rr := doRaw(t, h, http.MethodPost, "/v1/query", []byte(`{"vector":[1,2,3,4,5,6,7,8,9,10,11,12],"maxx":5}`))
	if !strings.Contains(rr.Body.String(), `unknown field \"maxx\"`) {
		t.Fatalf("misspelt field: body %s, want it to name the field", rr.Body.String())
	}

	// Wrong method on a POST route.
	rr = doRaw(t, h, http.MethodGet, "/v1/query", nil)
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

// TestWireReplyFormat pins each success reply byte for byte to what
// json.NewEncoder(w).Encode wrote for it before the reply encoder
// replaced it, with a nil id list sent as [], and checks the explicit
// Content-Length.
func TestWireReplyFormat(t *testing.T) {
	cases := []struct {
		name string
		got  reply
		want any // encoded with encoding/json
	}{
		{"query nil ids", queryResponse{IDs: nil, Epoch: 0, Cached: false},
			queryResponse{IDs: []int{}, Epoch: 0, Cached: false}},
		{"query cached", queryResponse{IDs: []int{7, 0, 123456789}, Epoch: 2, Cached: true},
			queryResponse{IDs: []int{7, 0, 123456789}, Epoch: 2, Cached: true}},
		{"query epoch 2^63", queryResponse{IDs: []int{1}, Epoch: 1 << 63},
			queryResponse{IDs: []int{1}, Epoch: 1 << 63}},
		{"batch", batchResponse{Results: [][]int{nil, {3, 1}, {}}, Epoch: 1 << 63, Cached: 2},
			batchResponse{Results: [][]int{{}, {3, 1}, {}}, Epoch: 1 << 63, Cached: 2}},
		{"batch mixed", batchResponse{Results: [][]int{{4}, {9}}, Epoch: 7, Mixed: true},
			batchResponse{Results: [][]int{{4}, {9}}, Epoch: 7, Mixed: true}},
		{"batch one uncached", batchResponse{Results: [][]int{{5}}, Epoch: 0},
			batchResponse{Results: [][]int{{5}}, Epoch: 0}},
		{"insert", insertResponse{ID: 0, Epoch: 1 << 63}, insertResponse{ID: 0, Epoch: 1 << 63}},
		{"insert large id", insertResponse{ID: math.MaxInt32, Epoch: 2}, insertResponse{ID: math.MaxInt32, Epoch: 2}},
		{"delete true", deleteResponse{Deleted: true, Epoch: 2}, deleteResponse{Deleted: true, Epoch: 2}},
		{"delete false", deleteResponse{Deleted: false, Epoch: 0}, deleteResponse{Deleted: false, Epoch: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(tc.want); err != nil {
				t.Fatal(err)
			}
			rr := httptest.NewRecorder()
			writeReply(rr, tc.got)
			if rr.Code != http.StatusOK {
				t.Fatalf("status %d", rr.Code)
			}
			if got := rr.Body.String(); got != want.String() {
				t.Fatalf("body %q, want %q", got, want.String())
			}
			if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(rr.Body.Len()) {
				t.Fatalf("Content-Length %q, body is %d bytes", cl, rr.Body.Len())
			}
		})
	}
}

// TestServeReplyNotChunked sends a /v1/querybatch whose reply is well
// past net/http's 2 KiB chunking threshold over a real connection and
// checks it arrives with a Content-Length, not Transfer-Encoding: chunked.
func TestServeReplyNotChunked(t *testing.T) {
	ix, pts := newKeyedIndex(t, 300)
	defer ix.Close()
	srv := New(ix, Options{Dim: testDim, QueueDepth: 256})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	buf, err := json.Marshal(batchRequest{Vectors: pts[:100]})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/querybatch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d body %s", resp.StatusCode, body.String())
	}
	if body.Len() <= 2048 {
		t.Fatalf("reply of %d bytes does not exercise the chunking threshold", body.Len())
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(body.Len()) {
		t.Fatalf("reply of %d bytes sent with Transfer-Encoding %v, Content-Length %d",
			body.Len(), resp.TransferEncoding, resp.ContentLength)
	}
}

// wireQueryBody is a /v1/query body of one unit-sphere point with every
// coordinate in shortest round-trip form, as the ledger's clients send
// them.
func wireQueryBody(dim int) []byte {
	b := []byte(`{"vector":[`)
	for i, x := range workload.SpherePoints(xrand.New(uint64(dim)), 1, dim)[0] {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	return append(b, `]}`...)
}

// wireFloatLiterals are number tokens at the edges of scanner.float's
// one-pass conversion: signed zero, exponents past any table, underflow
// to zero, the smallest subnormal, the largest subnormal's neighbour, the
// largest finite value and the first token that overflows, 2^53+1, a
// 21-digit integer and a 54-digit exact halfway case.
var wireFloatLiterals = []string{
	"-0", "0e999999999999", "1e-400", "4.9406564584124654e-324",
	"2.2250738585072011e-308", "1.7976931348623157e308", "1.7976931348623159e308",
	"9007199254740993", "123456789012345678901",
	"1.00000000000000011102230246251565404236316680908203125",
}

// scanFloatReference is the two-pass reference decoder for scanner.float:
// it delimits the token with number and converts it with
// strconv.ParseFloat, the call encoding/json makes for a float64.
func scanFloatReference(sc *scanner, dst *float64) *wireError {
	tok, werr := sc.value()
	if tok == nil {
		return werr
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return numberError(tok, "a float64")
	}
	*dst = v
	return nil
}

// TestServeWireFloatMatchesStrconv holds scanner.float to
// scanFloatReference: the same value bit for bit, the same acceptance or
// rejection with the same error text, and the same end offset, on every
// kind of token a JSON encoder writes, random digit strings and
// malformed tokens.
func TestServeWireFloatMatchesStrconv(t *testing.T) {
	check := func(tok string) {
		t.Helper()
		for _, body := range []string{tok, tok + "]", " " + tok + ",1"} {
			ref, got := scanner{b: []byte(body)}, scanner{b: []byte(body)}
			want, have := 0.5, 0.5
			werr, gerr := scanFloatReference(&ref, &want), got.float(&have)
			switch {
			case (werr == nil) != (gerr == nil):
				t.Fatalf("%q: error %v, want %v", body, gerr, werr)
			case werr != nil && werr.msg != gerr.msg:
				t.Fatalf("%q: error %q, want %q", body, gerr.msg, werr.msg)
			case werr == nil && math.Float64bits(have) != math.Float64bits(want):
				t.Fatalf("%q: decoded %v (%#x), want %v (%#x)", body, have, math.Float64bits(have), want, math.Float64bits(want))
			case werr == nil && got.i != ref.i:
				t.Fatalf("%q: stopped at offset %d, want %d", body, got.i, ref.i)
			}
		}
	}
	for _, tok := range wireFloatLiterals {
		check(tok)
		check("-" + tok)
	}
	for _, tok := range []string{"", "-", "-x", "1.", "1.x", "1e", "1e+", "1E-x", ".5", "+1", "-.5",
		"01", "0x10", "NaN", "Infinity", "1e5.5", "null", "nul", "1.5e+07", "00.5", "-0.0e-0",
		"1e99999999999999999999", "1e-99999999999999999999", "0.000000000000000000000000000001e30",
		"1e18446744073709551617", "1e-18446744073709551615"} {
		check(tok)
	}
	rng := xrand.New(29)
	digits := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if b[0] == '0' {
			b[0] = '1'
		}
		return b
	}
	for n := 0; n < 140000; n++ {
		var x float64
		if n%2 == 0 {
			x = math.Float64frombits(rng.Uint64())
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		} else {
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		check(strconv.FormatFloat(x, 'g', -1, 64))
		check(strconv.FormatFloat(x, 'e', rng.Intn(26), 64))
		check(strconv.FormatFloat(x, 'f', rng.Intn(26), 64))
		check(string(digits(1 + rng.Intn(25))))
	}
}

// TestWireDecodeAllocs pins decodeQuery on a d=256 body to exactly one
// allocation, the decoded vector: the body buffer is pooled and no
// number token is converted to a string on the way.
func TestWireDecodeAllocs(t *testing.T) {
	body := wireQueryBody(256)
	srv := &Server{opts: Options{Dim: 256}.withDefaults()}
	rd := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		if _, werr := srv.decodeQuery(rd); werr != nil {
			t.Fatal(werr)
		}
	})
	if allocs != 1 {
		t.Fatalf("decodeQuery at d=256: %.1f allocations per call, want 1", allocs)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, dim := range []int{64, 256} {
		b.Run(fmt.Sprintf("d=%d", dim), func(b *testing.B) {
			body := wireQueryBody(dim)
			srv := &Server{opts: Options{Dim: dim}.withDefaults()}
			rd := bytes.NewReader(body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				rd.Reset(body)
				if _, werr := srv.decodeQuery(rd); werr != nil {
					b.Fatal(werr)
				}
			}
		})
	}
}
