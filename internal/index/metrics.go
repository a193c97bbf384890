package index

import (
	"time"

	"dsh/internal/obs"
)

// Process-wide serving-core metrics, registered once in the obs default
// registry. All counters and histograms are striped: each shard records
// write-path metrics on its own stripe,
// and each Querier records query-path metrics on its own —
// queriers are per-goroutine, so concurrent batch workers never contend
// on a counter cache line. Recording never allocates; the instrumented
// query and insert benchmarks still report 0 allocs/op.
var (
	// Query path. One "query" is one veneer operation through the
	// candidateSource core: a distinct collection, an annulus query, a
	// range report, or a raw candidate stream — over any backend (static,
	// dynamic, sharded, snapshot).
	mQueries = obs.NewCounter("dsh_queries_total",
		"queries served through the candidateSource core (all veneers, all backends)")
	mQueryProbes = obs.NewCounter("dsh_query_probes_total",
		"per-layer bucket lookups performed by queries")
	mQueryCandidates = obs.NewCounter("dsh_query_candidates_total",
		"live candidate ids scanned by queries (duplicates across repetitions included)")
	mQueryDistinct = obs.NewCounter("dsh_query_distinct_total",
		"distinct candidate ids collected by queries")
	mQueryHashEvals = obs.NewCounter("dsh_query_hash_evals_total",
		"query-side hash evaluations g_i(q) (one per executed repetition)")
	mQueryLatency = obs.NewHistogram("dsh_query_latency_ns",
		"per-query wall time in nanoseconds")
	mBatches = obs.NewCounter("dsh_batches_total",
		"query batches executed by the concurrent batch engine")
	mBatchLatency = obs.NewHistogram("dsh_batch_latency_ns",
		"whole-batch wall time in nanoseconds")

	// Write path.
	mInserts = obs.NewCounter("dsh_inserts_total",
		"plain Insert operations")
	mUpserts = obs.NewCounter("dsh_upserts_total",
		"keyed upserts (InsertKeyed)")
	mDeletes = obs.NewCounter("dsh_deletes_total",
		"effective Delete operations (the id was live)")
	mDeletesKeyed = obs.NewCounter("dsh_deletes_keyed_total",
		"effective DeleteKeyed operations (the key was mapped)")
	mWriteHashEvals = obs.NewCounter("dsh_write_hash_evals_total",
		"data-side hash evaluations h_i(x) (L per insert/upsert)")
	mFreezesInline = obs.NewCounter("dsh_freezes_inline_total",
		"memtable freezes at the threshold, Flush and Compact, built in place under the structural lock")
	mFreezesSnapshot = obs.NewCounter("dsh_freezes_async_total",
		"memtable freezes a Snapshot forces, built in place under the structural lock")
	mFrozenRows = obs.NewCounter("dsh_frozen_rows_total",
		"rows frozen from memtables into segments")
	mFreezeBuild = obs.NewHistogram("dsh_freeze_build_ns",
		"flat-table build time of one memtable freeze in nanoseconds")

	// Compaction and GC.
	mCompactAll = obs.NewCounter("dsh_compactions_all_total",
		"monolithic merges (explicit Compact and the CompactAll policy)")
	mCompactUpper = obs.NewCounter("dsh_compactions_upper_total",
		"leveled upper-tier folds (id-preserving)")
	mCompactGC = obs.NewCounter("dsh_compactions_gc_total",
		"leveled bottom-level GC merges (tombstones dropped, ids renumbered)")
	mCompactRows = obs.NewCounter("dsh_compaction_rows_total",
		"rows written out by compaction merges")
	mCompactDur = obs.NewHistogram("dsh_compaction_ns",
		"wall time of one compaction merge in nanoseconds")
	mGCCollected = obs.NewCounter("dsh_gc_collected_rows_total",
		"tombstoned rows permanently dropped by bottom-level GC merges")
	mGCReclaimed = obs.NewCounter("dsh_gc_reclaimed_bitmap_bytes_total",
		"tombstone-bitmap bytes released by bottom-level GC merges")

	// Snapshot path.
	mSnapshots = obs.NewCounter("dsh_snapshots_total",
		"per-index snapshot pins (a sharded snapshot pins every shard)")
	mSnapshotsOpen = obs.NewGauge("dsh_snapshots_open",
		"snapshots currently pinned (taken minus released)")
	mSnapshotEpoch = obs.NewGauge("dsh_snapshot_last_epoch",
		"mutation epoch captured by the most recent snapshot pin (compare with the live Epoch for staleness age)")
	mSnapOptimistic = obs.NewCounter("dsh_snapshot_optimistic_total",
		"sharded snapshots that committed on the optimistic mark/pin/verify path")
	mSnapRetries = obs.NewCounter("dsh_snapshot_retries_total",
		"optimistic sharded-snapshot attempts invalidated by a concurrent mutation")
	mSnapFallback = obs.NewCounter("dsh_snapshot_fallback_total",
		"sharded snapshots that fell back to the exclusive write barrier")

	// Recovery (cold start from a durable directory).
	mRecoveries = obs.NewCounter("dsh_recoveries_total",
		"durable recoveries completed (one per index or shard opened)")
	mRecoverManifest = obs.NewHistogram("dsh_recover_manifest_ns",
		"recovery phase: manifest load time in nanoseconds")
	mRecoverSegments = obs.NewHistogram("dsh_recover_segments_ns",
		"recovery phase: segment file read+decode time in nanoseconds")
	mRecoverReplay = obs.NewHistogram("dsh_recover_replay_ns",
		"recovery phase: WAL replay time in nanoseconds")
)

// recordQuery flushes one query's counters onto the querier's stripe:
// a handful of atomic adds plus one histogram observation. hashEvals is
// the number of repetitions the query actually executed (each evaluates
// g_i(q) once).
func (qr *Querier[P]) recordQuery(start time.Time, hashEvals int, stats QueryStats) {
	st := qr.stripe
	mQueries.Inc(st)
	mQueryHashEvals.Add(st, uint64(hashEvals))
	mQueryProbes.Add(st, uint64(stats.Probes))
	mQueryCandidates.Add(st, uint64(stats.Candidates))
	mQueryDistinct.Add(st, uint64(stats.Distinct))
	mQueryLatency.Observe(st, uint64(time.Since(start)))
}
