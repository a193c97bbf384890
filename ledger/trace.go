package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Req ties together the spans
// of one request: its client.request span and the replay spans of its
// queries share it. Times are microseconds since the run started.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Req     int64   `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id (0 when not tracing).
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartUS: float64(start.Sub(t.t0)) / 1e3,
		EndUS:   float64(end.Sub(t.t0)) / 1e3,
	})
	return id
}

// open starts a span that later spans can name as their parent; close
// ends it.
func (t *tracer) open(name string, parent, req int64) int64 {
	now := time.Now()
	return t.record(name, parent, req, now, now)
}

func (t *tracer) close(id int64) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = float64(now.Sub(t.t0)) / 1e3
}

// traceFile is the JSON written at the end of a traced run.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	SelfUS   []layer `json:"self_us"`
	Spans    []span  `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64, self []layer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfUS: self, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layer is one row of the self-time table: the mean time per timed
// request spent in a layer and in none of the layers below it.
type layer struct {
	Name   string  `json:"name"`
	SelfUS float64 `json:"self_us"`
}
