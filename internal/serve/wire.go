package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The wire format is plain JSON over HTTP: small enough to drive with
// curl, strict enough to fuzz. The hot path never touches reflection:
// a request body is read whole into a pooled buffer and scanned by a
// byte scanner that knows the four request shapes and accepts their
// exact, unescaped field names only, so an unknown or misspelt field
// is a 400, not a silently dropped bound. A vector coordinate is
// converted in the scanner's one pass over its token, by the
// Eisel-Lemire algorithm strconv.ParseFloat itself uses, and any token
// that algorithm cannot decide goes to ParseFloat; every other number
// token is handed to the strconv call encoding/json makes for that field
// type. Either way the decoded values are the ones encoding/json would
// produce, bit for bit.
// The four success replies are appended with strconv into a pooled
// buffer and sent with an explicit Content-Length. Error replies keep
// encoding/json: they carry free text that needs string escaping, and
// they are off the hot path.
//
// Every decode error maps to a 4xx with a one-line JSON body; nothing
// in this file touches the index, so a malformed request is rejected
// before it costs an in-flight slot any real work.

// wireError is a decode/validation failure carrying the HTTP status it
// should be reported with.
type wireError struct {
	status int
	msg    string
}

func (e *wireError) Error() string { return e.msg }

func badRequest(format string, args ...any) *wireError {
	return &wireError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// queryRequest is the body of POST /v1/query.
type queryRequest struct {
	Vector []float64 `json:"vector"`
	// Max bounds the number of distinct candidates returned; 0 means
	// unbounded. Mirrors BatchOptions.MaxCandidates.
	Max int `json:"max,omitempty"`
}

// batchRequest is the body of POST /v1/querybatch.
type batchRequest struct {
	Vectors [][]float64 `json:"vectors"`
	Max     int         `json:"max,omitempty"`
}

// insertRequest is the body of POST /v1/insert. Key must be present on a
// hash-routed (keyed) index and absent on a round-robin one.
type insertRequest struct {
	Key    *uint64   `json:"key,omitempty"`
	Vector []float64 `json:"vector"`
}

// deleteRequest is the body of POST /v1/delete: exactly one of Key (keyed
// index) or ID (round-robin index) must be set.
type deleteRequest struct {
	Key *uint64 `json:"key,omitempty"`
	ID  *int64  `json:"id,omitempty"`
}

// queryResponse answers /v1/query.
type queryResponse struct {
	IDs    []int  `json:"ids"`
	Epoch  uint64 `json:"epoch"`
	Cached bool   `json:"cached"`
}

// batchResponse answers /v1/querybatch. Epoch is the oldest snapshot
// epoch among the results, and Mixed says whether they came from more
// than one snapshot; Cached counts how many of the batch's queries were
// answered from the hot-query cache.
type batchResponse struct {
	Results [][]int `json:"results"`
	Epoch   uint64  `json:"epoch"`
	Mixed   bool    `json:"mixed"`
	Cached  int     `json:"cached"`
}

// insertResponse answers /v1/insert with the assigned (or upserted) id.
type insertResponse struct {
	ID    int    `json:"id"`
	Epoch uint64 `json:"epoch"`
}

// deleteResponse answers /v1/delete.
type deleteResponse struct {
	Deleted bool   `json:"deleted"`
	Epoch   uint64 `json:"epoch"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// wireBuf is a pooled request or reply buffer. Buffers that grew past
// maxPooledBuf (a large batch) go to the garbage collector instead, so
// the pool never pins their memory.
type wireBuf struct{ b []byte }

const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 8<<10)} }}

func getBuf() *wireBuf { return bufPool.Get().(*wireBuf) }

func (w *wireBuf) free() {
	if cap(w.b) > maxPooledBuf {
		return
	}
	w.b = w.b[:0]
	bufPool.Put(w)
}

// decodeBody reads r to EOF into a pooled buffer and scans it with scan:
// 413 when r is a MaxBytesReader whose limit tripped, 400 on any other
// read error. No decoded value references the buffer.
func decodeBody[T any](r io.Reader, dim int, scan func([]byte, int) (T, *wireError)) (T, *wireError) {
	buf := getBuf()
	defer buf.free()
	for {
		if len(buf.b) == cap(buf.b) {
			buf.b = append(buf.b, 0)[:len(buf.b)]
		}
		n, err := r.Read(buf.b[len(buf.b):cap(buf.b)])
		buf.b = buf.b[:len(buf.b)+n]
		if err == io.EOF {
			return scan(buf.b, dim)
		}
		if err != nil {
			var zero T
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return zero, &wireError{status: http.StatusRequestEntityTooLarge, msg: "request body too large"}
			}
			return zero, badRequest("reading request body: %v", err)
		}
	}
}

// scanner reads one request body. It accepts RFC 8259 JSON restricted
// to the request shapes: a top-level object (or null, which decodes as
// an empty one, as in encoding/json) whose keys are the shape's exact
// field names, followed by nothing but whitespace. Within that, it
// mirrors encoding/json's decoding into the request structs: a null
// value clears a slice or pointer field and leaves a number as it was,
// and a repeated key decodes again into the value the earlier one left.
type scanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (sc *scanner) peek() byte {
	for ; sc.i < len(sc.b); sc.i++ {
		switch c := sc.b[sc.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (sc *scanner) syntaxError(want string) *wireError {
	if sc.i >= len(sc.b) {
		return badRequest("malformed request body: unexpected end of input, want %s", want)
	}
	return badRequest("malformed request body: invalid character %q at offset %d, want %s", sc.b[sc.i], sc.i, want)
}

// null consumes a null literal if one is next.
func (sc *scanner) null() bool {
	if sc.peek() == 'n' && len(sc.b)-sc.i >= 4 && string(sc.b[sc.i:sc.i+4]) == "null" {
		sc.i += 4
		return true
	}
	return false
}

// object scans a top-level object, handing each field name to field with
// the scanner placed at its value, and then requires the end of input.
// Names are compared raw: an escaped name never matches.
func (sc *scanner) object(field func(name []byte) *wireError) *wireError {
	if werr := sc.members(field); werr != nil {
		return werr
	}
	if sc.peek(); sc.i < len(sc.b) {
		return badRequest("trailing data after request body")
	}
	return nil
}

func (sc *scanner) members(field func(name []byte) *wireError) *wireError {
	if sc.null() {
		return nil
	}
	if sc.peek() != '{' {
		return sc.syntaxError("an object")
	}
	sc.i++
	if sc.peek() == '}' {
		sc.i++
		return nil
	}
	for {
		if sc.peek() != '"' {
			return sc.syntaxError("a field name")
		}
		name, werr := sc.name()
		if werr != nil {
			return werr
		}
		if sc.peek() != ':' {
			return sc.syntaxError("':'")
		}
		sc.i++
		if werr := field(name); werr != nil {
			return werr
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case '}':
			sc.i++
			return nil
		default:
			return sc.syntaxError("',' or '}'")
		}
	}
}

// name consumes a string token and returns its raw bytes, escapes left
// as written.
func (sc *scanner) name() ([]byte, *wireError) {
	start := sc.i + 1
	for j := start; j < len(sc.b); j++ {
		switch c := sc.b[j]; {
		case c == '"':
			sc.i = j + 1
			return sc.b[start:j], nil
		case c == '\\':
			j++
		case c < 0x20:
			sc.i = j
			return nil, sc.syntaxError("a closing '\"'")
		}
	}
	sc.i = len(sc.b)
	return nil, sc.syntaxError("a closing '\"'")
}

func unknownField(name []byte) *wireError {
	return badRequest("unknown field %q", name)
}

// number consumes one RFC 8259 number token.
func (sc *scanner) number() ([]byte, *wireError) {
	start := sc.i
	if sc.i < len(sc.b) && sc.b[sc.i] == '-' {
		sc.i++
	}
	if sc.i < len(sc.b) && sc.b[sc.i] == '0' {
		sc.i++
	} else if !sc.digits() {
		return nil, sc.syntaxError("a number")
	}
	if sc.i < len(sc.b) && sc.b[sc.i] == '.' {
		sc.i++
		if !sc.digits() {
			return nil, sc.syntaxError("a digit")
		}
	}
	if sc.i < len(sc.b) && (sc.b[sc.i] == 'e' || sc.b[sc.i] == 'E') {
		sc.i++
		if sc.i < len(sc.b) && (sc.b[sc.i] == '+' || sc.b[sc.i] == '-') {
			sc.i++
		}
		if !sc.digits() {
			return nil, sc.syntaxError("a digit")
		}
	}
	return sc.b[start:sc.i], nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (sc *scanner) digits() bool {
	start := sc.i
	for sc.i < len(sc.b) && '0' <= sc.b[sc.i] && sc.b[sc.i] <= '9' {
		sc.i++
	}
	return sc.i > start
}

func numberError(tok []byte, typ string) *wireError {
	return badRequest("malformed request body: number %s does not fit %s", tok, typ)
}

// value consumes a null literal, returning a nil token, or one number
// token. Each caller parses the token with the strconv call
// encoding/json makes for its field type.
func (sc *scanner) value() ([]byte, *wireError) {
	if sc.null() {
		return nil, nil
	}
	return sc.number()
}

// float scans a vector coordinate; null leaves *dst as it was. It walks
// the number token once: it checks the grammar exactly as number does,
// with the same errors at the same offsets, and meanwhile accumulates
// the decimal mantissa's first maxMantDigits significant digits and the
// decimal exponent, as strconv.ParseFloat's own reader does. A token
// whose digits all fit is converted by eiselLemire64, ParseFloat's own
// fast path, which returns the correctly rounded value whenever it
// decides. Every other token (more significant digits, an undecided
// rounding, a subnormal, an overflow) goes to ParseFloat itself, so the
// value, or the range error, is ParseFloat's bit for bit either way.
func (sc *scanner) float(dst *float64) *wireError {
	if sc.null() {
		return nil
	}
	const maxMantDigits = 19 // 10^19 < 2^64
	b, i := sc.b, sc.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10 := 0, 0 // significant digits in man; the token reads man × 10^exp10
	exact := true     // and no non-zero digit was dropped from man
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				nd++
			} else {
				exp10++
				exact = exact && b[i] == '0'
			}
		}
		if i == j {
			sc.i = i
			return sc.syntaxError("a number")
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				if man != 0 {
					nd++ // leading zeros are not significant
				}
				exp10--
			} else {
				exact = exact && b[i] == '0'
			}
		}
		if i == j {
			sc.i = i
			return sc.syntaxError("a digit")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 { // saturates far beyond any float64 exponent
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			sc.i = i
			return sc.syntaxError("a digit")
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	sc.i = i
	if exact {
		if v, ok := eiselLemire64(man, exp10, neg); ok {
			*dst = v
			return nil
		}
	}
	tok := b[start:i]
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return numberError(tok, "a float64")
	}
	*dst = v
	return nil
}

// int scans max; null leaves *dst as it was.
func (sc *scanner) int(dst *int) *wireError {
	tok, werr := sc.value()
	if tok == nil {
		return werr
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return numberError(tok, "an int")
	}
	*dst = int(v)
	return nil
}

// int64Ptr scans id; null clears *dst.
func (sc *scanner) int64Ptr(dst **int64) *wireError {
	tok, werr := sc.value()
	if tok == nil {
		if werr == nil {
			*dst = nil
		}
		return werr
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return numberError(tok, "an int64")
	}
	if *dst == nil {
		*dst = new(int64)
	}
	**dst = v
	return nil
}

// uint64Ptr scans key; null clears *dst.
func (sc *scanner) uint64Ptr(dst **uint64) *wireError {
	tok, werr := sc.value()
	if tok == nil {
		if werr == nil {
			*dst = nil
		}
		return werr
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		return numberError(tok, "a uint64")
	}
	if *dst == nil {
		*dst = new(uint64)
	}
	**dst = v
	return nil
}

// array scans a JSON array into *dst with encoding/json's slice
// semantics: null clears the slice, [] leaves it empty and non-nil, and
// otherwise element i decodes into whatever the slice's backing array
// already holds at i, and fresh elements start at zero. A nil slice
// starts with capacity hint.
func array[T any](sc *scanner, dst *[]T, hint int, elem func(*T) *wireError) *wireError {
	if sc.null() {
		*dst = nil
		return nil
	}
	if sc.peek() != '[' {
		return sc.syntaxError("an array")
	}
	sc.i++
	if sc.peek() == ']' {
		sc.i++
		*dst = []T{}
		return nil
	}
	v := *dst
	if v == nil {
		v = make([]T, 0, hint)
	}
	for n := 0; ; n++ {
		if n == cap(v) {
			var zero T
			v = append(v[:n], zero)
		} else {
			v = v[:n+1]
		}
		if werr := elem(&v[n]); werr != nil {
			return werr
		}
		switch sc.peek() {
		case ',':
			sc.i++
		case ']':
			sc.i++
			*dst = v
			return nil
		default:
			return sc.syntaxError("',' or ']'")
		}
	}
}

// floats scans a vector; dim is the capacity hint for a fresh one.
func (sc *scanner) floats(dst *[]float64, dim int) *wireError {
	return array(sc, dst, dim, sc.float)
}

// The scan functions decode one request shape with no validation beyond
// the JSON grammar, the field names and the field types; dim only sizes
// fresh vectors.

func scanQuery(b []byte, dim int) (queryRequest, *wireError) {
	var req queryRequest
	sc := scanner{b: b}
	werr := sc.object(func(name []byte) *wireError {
		switch string(name) {
		case "vector":
			return sc.floats(&req.Vector, dim)
		case "max":
			return sc.int(&req.Max)
		}
		return unknownField(name)
	})
	return req, werr
}

func scanBatch(b []byte, dim int) (batchRequest, *wireError) {
	var req batchRequest
	sc := scanner{b: b}
	werr := sc.object(func(name []byte) *wireError {
		switch string(name) {
		case "vectors":
			return array(&sc, &req.Vectors, 0, func(v *[]float64) *wireError { return sc.floats(v, dim) })
		case "max":
			return sc.int(&req.Max)
		}
		return unknownField(name)
	})
	return req, werr
}

func scanInsert(b []byte, dim int) (insertRequest, *wireError) {
	var req insertRequest
	sc := scanner{b: b}
	werr := sc.object(func(name []byte) *wireError {
		switch string(name) {
		case "key":
			return sc.uint64Ptr(&req.Key)
		case "vector":
			return sc.floats(&req.Vector, dim)
		}
		return unknownField(name)
	})
	return req, werr
}

func scanDelete(b []byte, _ int) (deleteRequest, *wireError) {
	var req deleteRequest
	sc := scanner{b: b}
	werr := sc.object(func(name []byte) *wireError {
		switch string(name) {
		case "key":
			return sc.uint64Ptr(&req.Key)
		case "id":
			return sc.int64Ptr(&req.ID)
		}
		return unknownField(name)
	})
	return req, werr
}

// checkVector validates one query/insert vector against the serving
// dimension: present, exactly dim wide, and finite in every coordinate.
// NaN would poison hash keys (every comparison false) and Inf overflows
// the projection sums, so both are rejected at the edge.
func checkVector(vec []float64, dim int) *wireError {
	if len(vec) == 0 {
		return badRequest("vector is required and must be non-empty")
	}
	if len(vec) != dim {
		return badRequest("vector has dimension %d, index serves dimension %d", len(vec), dim)
	}
	for i, v := range vec {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return badRequest("vector[%d] is not finite", i)
		}
	}
	return nil
}

func (s *Server) decodeQuery(r io.Reader) (queryRequest, *wireError) {
	req, werr := decodeBody(r, s.opts.Dim, scanQuery)
	if werr != nil {
		return req, werr
	}
	if werr := checkVector(req.Vector, s.opts.Dim); werr != nil {
		return req, werr
	}
	if req.Max < 0 {
		return req, badRequest("max must be >= 0, got %d", req.Max)
	}
	return req, nil
}

func (s *Server) decodeBatch(r io.Reader) (batchRequest, *wireError) {
	req, werr := decodeBody(r, s.opts.Dim, scanBatch)
	if werr != nil {
		return req, werr
	}
	if len(req.Vectors) == 0 {
		return req, badRequest("vectors is required and must be non-empty")
	}
	if len(req.Vectors) > s.opts.ShedDepth {
		return req, &wireError{
			status: http.StatusRequestEntityTooLarge,
			msg:    fmt.Sprintf("batch of %d vectors exceeds limit %d (the shed watermark)", len(req.Vectors), s.opts.ShedDepth),
		}
	}
	for i, vec := range req.Vectors {
		if werr := checkVector(vec, s.opts.Dim); werr != nil {
			return req, badRequest("vectors[%d]: %s", i, werr.msg)
		}
	}
	if req.Max < 0 {
		return req, badRequest("max must be >= 0, got %d", req.Max)
	}
	return req, nil
}

func (s *Server) decodeInsert(r io.Reader) (insertRequest, *wireError) {
	req, werr := decodeBody(r, s.opts.Dim, scanInsert)
	if werr != nil {
		return req, werr
	}
	if werr := checkVector(req.Vector, s.opts.Dim); werr != nil {
		return req, werr
	}
	if s.keyed && req.Key == nil {
		return req, badRequest("index is hash-routed: insert requires a key")
	}
	if !s.keyed && req.Key != nil {
		return req, badRequest("index is round-robin routed: insert must not carry a key")
	}
	return req, nil
}

func (s *Server) decodeDelete(r io.Reader) (deleteRequest, *wireError) {
	req, werr := decodeBody(r, s.opts.Dim, scanDelete)
	if werr != nil {
		return req, werr
	}
	if (req.Key == nil) == (req.ID == nil) {
		return req, badRequest("delete requires exactly one of key or id")
	}
	if s.keyed && req.Key == nil {
		return req, badRequest("index is hash-routed: delete requires a key")
	}
	if !s.keyed && req.Key != nil {
		return req, badRequest("index is round-robin routed: delete by id, not key")
	}
	if req.ID != nil && *req.ID < 0 {
		return req, badRequest("id must be >= 0, got %d", *req.ID)
	}
	return req, nil
}

// The append methods write each success reply exactly as
// json.NewEncoder(w).Encode would, trailing newline included, except
// that a nil id list is written as [] rather than null.

func appendIDs(b []byte, ids []int) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

func (r queryResponse) appendJSON(b []byte) []byte {
	b = appendIDs(append(b, `{"ids":`...), r.IDs)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	b = strconv.AppendBool(append(b, `,"cached":`...), r.Cached)
	return append(b, "}\n"...)
}

func (r batchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"results":[`...)
	for i, ids := range r.Results {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIDs(b, ids)
	}
	b = strconv.AppendUint(append(b, `],"epoch":`...), r.Epoch, 10)
	b = strconv.AppendBool(append(b, `,"mixed":`...), r.Mixed)
	b = strconv.AppendInt(append(b, `,"cached":`...), int64(r.Cached), 10)
	return append(b, "}\n"...)
}

func (r insertResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), int64(r.ID), 10)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	return append(b, "}\n"...)
}

func (r deleteResponse) appendJSON(b []byte) []byte {
	b = strconv.AppendBool(append(b, `{"deleted":`...), r.Deleted)
	b = strconv.AppendUint(append(b, `,"epoch":`...), r.Epoch, 10)
	return append(b, "}\n"...)
}

// reply is a success reply body.
type reply interface{ appendJSON([]byte) []byte }

// writeReply sends v with status 200 from a pooled buffer, with an
// explicit Content-Length so the body never goes out chunked.
func writeReply(w http.ResponseWriter, v reply) {
	buf := getBuf()
	buf.b = v.appendJSON(buf.b[:0])
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(buf.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.b)
	buf.free()
}

// writeError answers status with a one-line {"error": msg} body.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// writeWireError reports a wireError to the client and bumps the
// bad-request counter.
func (s *Server) writeWireError(w http.ResponseWriter, werr *wireError) {
	mBadRequests.Inc(s.stripe)
	writeError(w, werr.status, werr.msg)
}
