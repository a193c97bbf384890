package index

// This file is the index-side hook for the network serving edge
// (internal/serve): a batch entry point that, alongside the usual
// distinct-candidate results, returns every query's *hash-key signature*
// — a 64-bit fold of its L per-repetition keys g_i(q). Two queries with
// equal signatures probed the same bucket in every repetition, so against
// the same pinned snapshot they produce identical candidate streams;
// that makes the signature a sound cache key for query results, valid
// exactly as long as the snapshot's epoch.

// sigSeed is the initial accumulator of the signature fold; any non-zero
// constant works, the golden-ratio word matches mixKey's increment.
const sigSeed = 0x9e3779b97f4a7c15

// sig folds query column i of the rep-major key block into a 64-bit
// signature: per repetition the key is xor-folded and re-mixed through the
// splitmix64 finalizer, so the fold is order-sensitive (repetition r's key
// contributes differently from repetition r+1's) and avalanches.
func (bk *blockKeys) sig(i int) uint64 {
	s := uint64(sigSeed)
	for off := i; off < len(bk.keys); off += bk.q {
		s = mixKey(s ^ bk.keys[off])
	}
	return s
}

// QueryBatchSigned is QueryBatch plus, for every query, the 64-bit fold
// of its L per-repetition hash keys g_i(q). Candidate lists and stats are
// bit-identical to QueryBatch over the same snapshot (the queriers consume
// the exact key block the signatures were folded from); equal signatures
// against one snapshot imply identical results, which is the serving
// edge's cache-key invariant. Unlike QueryBatch, the repetition-blocked
// pre-hash always runs (even for batches of one query), since the
// signature needs every key; opts.NoBlockHash is ignored.
func (ss *ShardedSnapshot[P]) QueryBatchSigned(queries []P, opts BatchOptions) ([][]int, []uint64, []QueryStats, BatchStats) {
	return ss.collectBatch(queries, opts, true)
}
