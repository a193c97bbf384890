package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
)

// The wire format is plain JSON over HTTP: small enough to drive with
// curl, strict enough to fuzz. Every decode error maps to a 4xx with a
// one-line JSON body; nothing in this file touches the index, so a
// malformed request is rejected before it costs an in-flight slot any
// real work.

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

// batchResponse answers /v1/querybatch; Cached counts how many of the
// batch's queries were answered from the hot-query cache.
type batchResponse struct {
	Results [][]int `json:"results"`
	Epoch   uint64  `json:"epoch"`
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

// decodeJSON decodes one JSON value from r into v, rejecting syntax
// errors, wrong shapes, and trailing garbage with 400 (or 413 when the
// body tripped MaxBytesReader).
func decodeJSON(r io.Reader, v any) *wireError {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return &wireError{status: http.StatusRequestEntityTooLarge, msg: "request body too large"}
		}
		return badRequest("malformed request body: %v", err)
	}
	if dec.More() {
		return badRequest("trailing data after request body")
	}
	return nil
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
	var req queryRequest
	if werr := decodeJSON(r, &req); werr != nil {
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
	var req batchRequest
	if werr := decodeJSON(r, &req); werr != nil {
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
	var req insertRequest
	if werr := decodeJSON(r, &req); werr != nil {
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
	var req deleteRequest
	if werr := decodeJSON(r, &req); werr != nil {
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

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeWireError reports a wireError to the client and bumps the
// bad-request counter.
func (s *Server) writeWireError(w http.ResponseWriter, werr *wireError) {
	mBadRequests.Inc(s.stripe)
	writeJSON(w, werr.status, errorResponse{Error: werr.msg})
}
