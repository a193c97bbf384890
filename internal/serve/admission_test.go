package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// waitFor polls cond until it holds, failing the test after five seconds.
// It stands in for events the code under test does not publish, such as
// a query leaving the intake queue; no test sleeps for a fixed time to
// let something happen.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// waitReceived waits until the dispatcher has taken n queries off the
// intake queue.
func waitReceived(t *testing.T, co *coalescer, n int64) {
	t.Helper()
	waitFor(t, "the dispatcher to take parked queries", func() bool { return co.received.Load() >= n })
}

// The gated helpers hold every flush until open is called: the first
// query the dispatcher takes keeps it inside its flush, so later queries
// park in the intake queue. open is idempotent.

// newGatedCoalescer starts a bare dispatcher whose flush hook reports each
// batch size on the returned channel, then waits for open.
func newGatedCoalescer(t *testing.T, batchSize, queueDepth, shedDepth int) (*coalescer, <-chan int, context.CancelFunc) {
	gate, open := context.WithCancel(context.Background())
	sizes := make(chan int, queueDepth+1) // at most one flush per offered query
	co := newCoalescer(batchSize, queueDepth, shedDepth, func(batch []*pending) {
		sizes <- len(batch)
		<-gate.Done()
	})
	go co.run()
	t.Cleanup(func() {
		open()
		co.stop()
		<-co.done()
	})
	return co, sizes, open
}

// newGatedServer builds a keyed-index server whose flushes wait for open
// before serving their batch.
func newGatedServer(t *testing.T, opts Options) (*Server, context.CancelFunc) {
	ix, _ := newKeyedIndex(t, 50)
	opts.Dim = testDim
	srv := New(ix, opts)
	gate, open := context.WithCancel(context.Background())
	// Set before any query is offered: the intake send orders this write
	// before the dispatcher reads the hook.
	serveBatch := srv.co.flush
	srv.co.flush = func(batch []*pending) {
		<-gate.Done()
		serveBatch(batch)
	}
	t.Cleanup(func() {
		open()
		_ = srv.Close()
		ix.Close()
	})
	return srv, open
}

// parkable returns a query ready to offer straight to a coalescer.
func parkable() *pending { return &pending{enq: time.Now(), done: make(chan result, 1)} }

// onesQuery is a valid /v1/query body for the test dimension.
var onesQuery = []byte(`{"vector":[1,1,1,1,1,1,1,1,1,1,1,1]}`)

// queryAsync fires one wire query (a fixed valid vector) against the
// handler from a goroutine and returns a channel carrying the recorder
// once the response is written.
func queryAsync(srv *Server) <-chan *httptest.ResponseRecorder {
	ch := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(onesQuery))
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, req)
		ch <- rr
	}()
	return ch
}

// TestCoalesceLoneQueryFlushesAtOnce pins work conservation: a query
// parked on an idle dispatcher flushes by itself, with no timer and no
// second arrival to trigger it.
func TestCoalesceLoneQueryFlushesAtOnce(t *testing.T) {
	co, sizes, open := newGatedCoalescer(t, 8, 8, 8)
	open()
	if !co.offer(parkable()) {
		t.Fatal("offer refused")
	}
	if n := <-sizes; n != 1 {
		t.Fatalf("lone query flushed in a batch of %d", n)
	}
}

// TestCoalesceParkedDuringFlush pins how batches form without a timer:
// queries that arrive while a flush runs park in the intake queue and
// leave together in the next flush.
func TestCoalesceParkedDuringFlush(t *testing.T) {
	srv, open := newGatedServer(t, Options{BatchSize: 8, CacheSize: -1})
	flushes, coalesced := mFlushes.Value(), mCoalesced.Value()

	first := queryAsync(srv)
	waitReceived(t, srv.co, 1) // the first query holds the dispatcher in its flush
	second, third := queryAsync(srv), queryAsync(srv)
	waitFor(t, "two queries to park", func() bool { return len(srv.co.intake) == 2 })

	open()
	for i, ch := range []<-chan *httptest.ResponseRecorder{first, second, third} {
		if rr := <-ch; rr.Code != http.StatusOK {
			t.Fatalf("query %d: status %d body %s", i, rr.Code, rr.Body.String())
		}
	}
	if d := mFlushes.Value() - flushes; d != 2 {
		t.Fatalf("%d flushes, want 2 (the first query alone, then the two parked ones together)", d)
	}
	if d := mCoalesced.Value() - coalesced; d != 1 {
		t.Fatalf("%d coalesced batches, want 1", d)
	}
}

// TestCoalesceBatchSizeFlush pins the size cap: one sweep takes at most
// BatchSize parked queries, and the rest leave in the following flushes.
func TestCoalesceBatchSizeFlush(t *testing.T) {
	co, sizes, open := newGatedCoalescer(t, 2, 8, 8)
	if !co.offer(parkable()) {
		t.Fatal("initial offer refused")
	}
	waitReceived(t, co, 1)
	for i := 0; i < 5; i++ {
		if !co.offer(parkable()) {
			t.Fatalf("offer %d refused", i)
		}
	}
	open()
	for i, want := range []int{1, 2, 2, 1} {
		if got := <-sizes; got != want {
			t.Fatalf("flush %d took %d queries, want %d", i, got, want)
		}
	}
}

// TestCoalesceWatermarkShedding drives the coalescer with a blocked flush
// hook: parked queries pile up while the dispatcher is busy, the shed
// watermark refuses offers before the channel is full, and opening the
// gate drains everything.
func TestCoalesceWatermarkShedding(t *testing.T) {
	co, _, open := newGatedCoalescer(t, 1, 8, 3)
	// One offer fills a batch (size 1); the dispatcher takes it and
	// blocks inside the flush hook.
	if !co.offer(parkable()) {
		t.Fatal("initial offer refused")
	}
	waitReceived(t, co, 1)

	// The dispatcher is stuck: exactly shedDepth queries may park, the
	// next offer is shed.
	for i := 0; i < 3; i++ {
		if !co.offer(parkable()) {
			t.Fatalf("offer %d refused below the watermark", i)
		}
	}
	if co.offer(parkable()) {
		t.Fatal("offer above the shed watermark accepted")
	}

	// Open the gate: everything parked flushes.
	open()
	waitReceived(t, co, 4)
}

// TestAdmissionBudgetSheds pins the in-flight semaphore: with a budget of
// one, a second concurrent request is shed with 429 + Retry-After while
// the first is parked, and the shed path releases nothing it didn't take.
func TestAdmissionBudgetSheds(t *testing.T) {
	srv, open := newGatedServer(t, Options{
		BatchSize:   8,
		MaxInFlight: 1,
		CacheSize:   -1,
		RetryAfter:  3 * time.Second,
	})

	first := queryAsync(srv)
	waitReceived(t, srv.co, 1) // the first request holds the only slot, inside a blocked flush

	rr := doRaw(t, srv.Handler(), http.MethodPost, "/v1/query", onesQuery)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	if n := srv.adm.inFlight(); n != 1 {
		t.Fatalf("in-flight %d after shed, want 1 (shed must not release the holder's slot)", n)
	}

	open()
	if rr := <-first; rr.Code != http.StatusOK {
		t.Fatalf("parked request: status %d", rr.Code)
	}
	waitFor(t, "the in-flight budget to empty", func() bool { return srv.adm.inFlight() == 0 })
}

// TestServeGracefulDrain pins the drain ordering: queries admitted before
// the latch — one inside a flush, one still parked in the queue —
// complete with 200, requests after it get 503 + Retry-After, and Drain
// returns with the budget empty.
func TestServeGracefulDrain(t *testing.T) {
	srv, open := newGatedServer(t, Options{BatchSize: 8, CacheSize: -1})

	inFlush := queryAsync(srv)
	waitReceived(t, srv.co, 1)
	parked := queryAsync(srv)
	waitFor(t, "the second query to park", func() bool { return len(srv.co.intake) == 1 })

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Close() }()
	waitFor(t, "the drain latch", srv.adm.isDraining)

	rr := doRaw(t, srv.Handler(), http.MethodPost, "/v1/query", onesQuery)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("request after the drain latch: status %d, want 503", rr.Code)
	}
	if got := rr.Header().Get("Retry-After"); got == "" {
		t.Fatal("503 without Retry-After")
	}

	// The admitted queries still complete once the flush unblocks: the
	// dispatcher's final sweep takes the parked one.
	open()
	for i, ch := range []<-chan *httptest.ResponseRecorder{inFlush, parked} {
		if rr := <-ch; rr.Code != http.StatusOK {
			t.Fatalf("query %d admitted before the drain: status %d, want 200", i, rr.Code)
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.adm.inFlight(); n != 0 {
		t.Fatalf("%d slots still held after drain", n)
	}
}
