package serve

import "dsh/internal/obs"

// Serving-edge metrics, registered once in the obs default registry and
// exported through /metrics on the server's own mux. All hot-path records
// are striped counter adds or histogram observations — the serving edge
// never blocks a request on metrics.
var (
	// Request intake and admission.
	mRequests = obs.NewCounter("dsh_serve_requests_total",
		"HTTP requests received by the serving edge (all /v1 endpoints)")
	mQueryReqs = obs.NewCounter("dsh_serve_queries_total",
		"query operations enqueued into the coalescing intake queue")
	mMutations = obs.NewCounter("dsh_serve_mutations_total",
		"insert and delete operations applied through the serving edge")
	mBadRequests = obs.NewCounter("dsh_serve_bad_requests_total",
		"requests rejected by the wire codec (4xx: malformed JSON, bad dims, oversized batches)")
	mShed = obs.NewCounter("dsh_serve_shed_total",
		"requests shed with 429 by admission control (in-flight budget exhausted or intake queue over the watermark)")
	mDrainRejected = obs.NewCounter("dsh_serve_drain_rejected_total",
		"requests refused with 503 while the server was draining")
	mTimeouts = obs.NewCounter("dsh_serve_timeouts_total",
		"requests that hit their deadline before the dispatcher answered (504)")
	mAbandoned = obs.NewCounter("dsh_serve_abandoned_total",
		"parked queries skipped by the dispatcher because their context was already canceled")
	mInFlight = obs.NewGauge("dsh_serve_inflight",
		"requests currently holding an in-flight budget slot")
	mQueueDepth = obs.NewGauge("dsh_serve_queue_depth",
		"queries currently parked in the coalescing intake queue")

	// Coalescing dispatcher.
	mFlushes = obs.NewCounter("dsh_serve_batches_total",
		"batches flushed by the dispatcher (one per sweep of the intake queue, up to the batch size)")
	mCoalesced = obs.NewCounter("dsh_serve_coalesced_batches_total",
		"dispatcher batches that merged more than one in-flight query")
	mBatchSize = obs.NewHistogram("dsh_serve_batch_size",
		"queries per coalesced dispatcher batch")
	mQueueWait = obs.NewHistogram("dsh_serve_queue_wait_ns",
		"time a query spent parked in the intake queue before its batch flushed, in nanoseconds")
	mServeLatency = obs.NewHistogram("dsh_serve_request_ns",
		"server-side query latency (enqueue to result received; reply encoding excluded) in nanoseconds")
	mSnapRefresh = obs.NewCounter("dsh_serve_snapshot_refreshes_total",
		"serving-snapshot refreshes triggered by an epoch advance")
	mSegments = obs.NewGauge("dsh_serve_segments",
		"frozen segments summed over the served index's shards, read right after the last snapshot refresh's freeze, so possibly before the merge it triggers (each adds one probe per repetition)")

	// Hot-query cache.
	mCacheHits = obs.NewCounter("dsh_serve_cache_hits_total",
		"queries answered from the hot-query cache (no hash evaluation, no probe)")
	mCacheMisses = obs.NewCounter("dsh_serve_cache_misses_total",
		"queries that missed the hot-query cache and ran through the batch engine")
	mCacheStale = obs.NewCounter("dsh_serve_cache_stale_total",
		"cache entries discarded on lookup because the serving epoch moved past them")
	mCacheEvict = obs.NewCounter("dsh_serve_cache_evictions_total",
		"cache entries evicted by the size-bounded LRU")

	// Mutation endpoints.
	mInsertOps = obs.NewCounter("dsh_serve_inserts_total",
		"insert/upsert operations applied through /v1/insert")
	mDeleteOps = obs.NewCounter("dsh_serve_deletes_total",
		"delete operations applied through /v1/delete")
)
