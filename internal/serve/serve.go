// Package serve is the dsh network serving edge: a standard-library HTTP
// front end over a ShardedIndex that makes many slow connections look
// like one fast batch. Three mechanisms stack:
//
//   - Cross-connection coalescing. Query handlers park their request in a
//     bounded intake queue; a single dispatcher drains it into
//     QueryBatchSigned calls, flushing whatever is parked the moment it is
//     free. Queries that arrive while one flush runs leave together in
//     the next, so concurrent clients share one repetition-blocked
//     pre-hash and one worker-pool pass per flush.
//   - Admission control. A semaphore bounds in-flight requests and a
//     queue-depth watermark sheds load with 429 + Retry-After before the
//     dispatcher saturates; every request carries a deadline, and
//     graceful drain (SIGTERM in dshserve) completes parked work while
//     refusing new requests with 503. A mutation the durable store failed
//     to journal is answered with 503 too, never acknowledged.
//   - A hot-query result cache keyed by the per-repetition hash-key
//     signature of the query point. Equal signatures against one snapshot
//     imply identical results (they probed the same bucket in every
//     repetition), and entries are stamped with the snapshot epoch, so
//     any insert or delete invalidates the whole cache at the next
//     refresh. Cache hits skip hash evaluation entirely via a seeded
//     fingerprint of the raw vector bits, confirmed against the stored
//     vector.
//
// Endpoints: POST /v1/query, /v1/querybatch, /v1/insert, /v1/delete
// (keyed or round-robin variants matching the index routing), GET
// /healthz, plus the obshttp metrics plane (/metrics, /debug/vars,
// /debug/pprof/) on the same mux.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/obshttp"
)

// Options configures a Server. The zero value of every field except Dim
// is usable; defaults are filled by New.
type Options struct {
	// Dim is the vector dimensionality the index serves. Required.
	Dim int
	// BatchSize caps how many parked queries one dispatcher flush takes.
	// Default 64.
	BatchSize int
	// MaxInFlight bounds concurrently admitted requests. Default 1024.
	MaxInFlight int
	// QueueDepth is the intake-queue capacity. Default 4*BatchSize.
	QueueDepth int
	// ShedDepth is the backpressure watermark: query offers are refused
	// with 429 once this many queries are parked. Default 3/4 QueueDepth.
	ShedDepth int
	// CacheSize bounds the hot-query cache entry count; 0 uses the
	// default 4096, negative disables the cache.
	CacheSize int
	// Workers is the batch-engine worker count per flush. Default
	// GOMAXPROCS.
	Workers int
	// MaxBatch bounds vectors per /v1/querybatch request. Default 1024.
	MaxBatch int
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// Timeout is the per-request deadline. Default 2s.
	Timeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses. Default 1s.
	RetryAfter time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 1024
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.BatchSize
	}
	if o.ShedDepth <= 0 || o.ShedDepth > o.QueueDepth {
		o.ShedDepth = o.QueueDepth - o.QueueDepth/4
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is the serving edge over one ShardedIndex. Create with New,
// mount Handler on an http.Server, and shut down with Drain (or Close).
type Server struct {
	ix    *index.ShardedIndex[[]float64]
	opts  Options
	keyed bool // RouteHash: mutations go through the keyed entry points

	stripe uint32

	adm   *admission
	co    *coalescer
	cache *queryCache // nil when disabled
	mux   *http.ServeMux

	// Serving snapshot, owned by the dispatcher goroutine (and by Drain
	// after the dispatcher exits): refreshed at flush time whenever the
	// index epoch has moved, released when replaced.
	snap      *index.ShardedSnapshot[[]float64]
	snapEpoch uint64
}

// New builds a Server over ix and starts its dispatcher. opts.Dim must
// match the vectors ix was built over; it is the server's only required
// option.
func New(ix *index.ShardedIndex[[]float64], opts Options) *Server {
	if opts.Dim <= 0 {
		panic("serve: Options.Dim is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		ix:     ix,
		opts:   opts,
		stripe: obs.NextStripe(),
		keyed:  ix.Routing() == index.RouteHash,
		adm:    newAdmission(opts.MaxInFlight, opts.RetryAfter),
	}
	if opts.CacheSize > 0 {
		s.cache = newQueryCache(opts.CacheSize)
	}
	s.co = newCoalescer(opts.BatchSize, opts.QueueDepth, opts.ShedDepth, s.serveBatch)
	s.buildMux()
	go s.co.run()
	return s
}

// Handler returns the server's mux: the /v1 endpoints, /healthz, and the
// obshttp metrics plane.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the serving edge down: new requests are refused
// with 503 while parked and in-flight ones run to completion (bounded by
// ctx), then the serving snapshot is released. The index itself is not
// closed — that stays with the caller. Safe to call once.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.beginDrain()
	s.co.stop()
	select {
	case <-s.co.done():
	case <-ctx.Done():
		return ctx.Err()
	}
	// Stragglers: a handler that passed the draining check just before
	// beginDrain may have parked a query after the dispatcher's final
	// sweep. They hold budget slots, so sweep the queue until every slot
	// is back.
	for s.adm.inFlight() > 0 {
		s.sweepIntake()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	s.sweepIntake()
	if s.snap != nil {
		s.snap.Release()
		s.snap = nil
	}
	return nil
}

// Close is Drain without a deadline.
func (s *Server) Close() error { return s.Drain(context.Background()) }

// sweepIntake flushes anything still parked in the intake queue; only
// called after the dispatcher goroutine has exited.
func (s *Server) sweepIntake() {
	batch := make([]*pending, 0, s.opts.BatchSize)
	s.co.fill(&batch)
	if len(batch) > 0 {
		s.co.dispatch(batch)
	}
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/querybatch", s.handleQueryBatch)
	mux.HandleFunc("POST /v1/insert", s.handleInsert)
	mux.HandleFunc("POST /v1/delete", s.handleDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.adm.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if err := s.ix.DurableErr(); err != nil {
			http.Error(w, "durable store failed: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	obshttp.Mount(mux)
	s.mux = mux
}

// admit runs the shared front half of every /v1 handler: drain refusal,
// then the in-flight budget. A true return means the caller holds a slot
// and must release it on every path.
func (s *Server) admit(w http.ResponseWriter) bool {
	mRequests.Inc(s.stripe)
	if s.adm.isDraining() {
		mDrainRejected.Inc(s.stripe)
		w.Header().Set("Retry-After", s.adm.retry)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining"})
		return false
	}
	if !s.adm.tryAcquire() {
		mShed.Inc(s.stripe)
		w.Header().Set("Retry-After", s.adm.retry)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "in-flight budget exhausted"})
		return false
	}
	return true
}

// unjournaled answers 503 with the cause when the index has latched a
// durability fault: the mutation just applied in memory, but it may not
// survive a restart, so it must not be acknowledged.
func (s *Server) unjournaled(w http.ResponseWriter) bool {
	err := s.ix.DurableErr()
	if err == nil {
		return false
	}
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "durable store failed: " + err.Error()})
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.adm.release()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, werr := s.decodeQuery(r.Body)
	if werr != nil {
		s.writeWireError(w, werr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	start := time.Now()
	p := &pending{
		ctx: ctx, vec: req.Vector, max: req.Max,
		fp:   fingerprint(req.Vector, req.Max),
		enq:  start,
		done: make(chan result, 1),
	}
	mQueryReqs.Inc(s.stripe)
	if !s.co.offer(p) {
		mShed.Inc(s.stripe)
		w.Header().Set("Retry-After", s.adm.retry)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "intake queue over watermark"})
		return
	}
	select {
	case res := <-p.done:
		mServeLatency.Observe(s.stripe, uint64(time.Since(start)))
		writeJSON(w, http.StatusOK, queryResponse{IDs: nonNilIDs(res.ids), Epoch: res.epoch, Cached: res.cached})
	case <-ctx.Done():
		p.canceled.Store(true)
		mTimeouts.Inc(s.stripe)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "query deadline exceeded"})
	}
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.adm.release()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, werr := s.decodeBatch(r.Body)
	if werr != nil {
		s.writeWireError(w, werr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	start := time.Now()
	ps := make([]*pending, len(req.Vectors))
	for i, vec := range req.Vectors {
		ps[i] = &pending{
			ctx: ctx, vec: vec, max: req.Max,
			fp:   fingerprint(vec, req.Max),
			enq:  start,
			done: make(chan result, 1),
		}
	}
	mQueryReqs.Add(s.stripe, uint64(len(ps)))
	for i, p := range ps {
		if !s.co.offer(p) {
			// Shed the whole request; flag the already-parked prefix so
			// the dispatcher skips it.
			for _, q := range ps[:i] {
				q.canceled.Store(true)
			}
			mShed.Inc(s.stripe)
			w.Header().Set("Retry-After", s.adm.retry)
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "intake queue over watermark"})
			return
		}
	}
	resp := batchResponse{Results: make([][]int, len(ps))}
	for i, p := range ps {
		select {
		case res := <-p.done:
			resp.Results[i] = nonNilIDs(res.ids)
			resp.Epoch = res.epoch
			if res.cached {
				resp.Cached++
			}
		case <-ctx.Done():
			for _, q := range ps[i:] {
				q.canceled.Store(true)
			}
			mTimeouts.Inc(s.stripe)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "query deadline exceeded"})
			return
		}
	}
	mServeLatency.Observe(s.stripe, uint64(time.Since(start)))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.adm.release()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, werr := s.decodeInsert(r.Body)
	if werr != nil {
		s.writeWireError(w, werr)
		return
	}
	var id int
	if s.keyed {
		id = s.ix.InsertKeyed(*req.Key, req.Vector)
	} else {
		id = s.ix.Insert(req.Vector)
	}
	mMutations.Inc(s.stripe)
	mInsertOps.Inc(s.stripe)
	if s.unjournaled(w) {
		return
	}
	writeJSON(w, http.StatusOK, insertResponse{ID: id, Epoch: s.ix.Epoch()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w) {
		return
	}
	defer s.adm.release()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	req, werr := s.decodeDelete(r.Body)
	if werr != nil {
		s.writeWireError(w, werr)
		return
	}
	var deleted bool
	if s.keyed {
		deleted = s.ix.DeleteKeyed(*req.Key)
	} else {
		deleted = s.ix.Delete(int(*req.ID))
	}
	mMutations.Inc(s.stripe)
	mDeleteOps.Inc(s.stripe)
	if s.unjournaled(w) {
		return
	}
	writeJSON(w, http.StatusOK, deleteResponse{Deleted: deleted, Epoch: s.ix.Epoch()})
}

// serveBatch is the dispatcher's flush hook: refresh the serving snapshot
// if the index moved, answer cache hits, run the misses through
// QueryBatchSigned grouped by candidate bound, fill the cache, respond.
func (s *Server) serveBatch(batch []*pending) {
	live := batch[:0]
	for _, p := range batch {
		if p.canceled.Load() || p.ctx.Err() != nil {
			mAbandoned.Inc(s.stripe)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}
	s.refreshSnapshot()

	// Cache pass: answer hits immediately, collect misses grouped by
	// their candidate bound (MaxCandidates is batch-wide in the engine).
	var groups map[int][]*pending
	for _, p := range live {
		if s.cache != nil {
			if ids, ok := s.cache.lookup(p, s.snapEpoch); ok {
				p.done <- result{ids: ids, epoch: s.snapEpoch, cached: true}
				continue
			}
		}
		if groups == nil {
			groups = make(map[int][]*pending, 1)
		}
		groups[p.max] = append(groups[p.max], p)
	}
	for max, ps := range groups {
		qs := make([][]float64, len(ps))
		for i, p := range ps {
			qs[i] = p.vec
		}
		out, sigs, _, _ := s.snap.QueryBatchSigned(qs, index.BatchOptions{
			Workers:       s.opts.Workers,
			MaxCandidates: max,
		})
		for i, p := range ps {
			if s.cache != nil {
				s.cache.store(mixSig(sigs[i], max), p, s.snapEpoch, out[i])
			}
			p.done <- result{ids: out[i], epoch: s.snapEpoch}
		}
	}
}

// refreshSnapshot pins a fresh snapshot when the index epoch has moved
// (or on first use). The epoch sum is monotone, so equality means no
// insert or delete landed since the pin — the snapshot is still current.
func (s *Server) refreshSnapshot() {
	if s.snap != nil && s.ix.Epoch() == s.snapEpoch {
		return
	}
	if s.snap != nil {
		s.snap.Release()
	}
	s.snap = s.ix.Snapshot()
	s.snapEpoch = s.snap.Epoch()
	mSnapRefresh.Inc(s.stripe)
}

// mixSig folds the candidate bound into a query's hash-key signature —
// two queries with identical keys but different bounds return different
// prefixes, so they must cache separately. splitmix64 finalizer.
func mixSig(sig uint64, max int) uint64 {
	z := sig ^ (uint64(max) + 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// nonNilIDs keeps empty result sets as [] rather than null on the wire.
func nonNilIDs(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}
