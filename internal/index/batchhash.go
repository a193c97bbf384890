package index

import (
	"sync"
	"sync/atomic"

	"dsh/internal/core"
)

// hashColumn fills keys[j] with h.Hash(points[j]), through one HashBatch
// call when h implements core.BatchHasher (whose contract makes the keys
// bit-identical). Every build, join repetition and query block hashes its
// columns here.
func hashColumn[P any](h core.Hasher[P], points []P, keys []uint64) {
	if bh, ok := h.(core.BatchHasher[P]); ok {
		bh.HashBatch(points, keys)
		return
	}
	for j, p := range points {
		keys[j] = h.Hash(p)
	}
}

// blockHashMinQueries is the smallest batch that takes the pre-hash path:
// below it the key block's bookkeeping outweighs the cache-residency win
// of streaming queries through one repetition's draws.
const blockHashMinQueries = 8

// blockKeys is a pooled rep-major key block produced by blockHash:
// keys[rep*q + qi] holds g_rep(queries[qi]). The rep-major layout is the
// point of the exercise — all q keys of a repetition are computed back to
// back while that repetition's draws are cache-resident, instead of
// re-touching all L draws for every query.
type blockKeys struct {
	keys []uint64
	q    int
}

var keyBlockPool = sync.Pool{New: func() any { return new(blockKeys) }}

func acquireBlockKeys(l, q int) *blockKeys {
	bk := keyBlockPool.Get().(*blockKeys)
	n := l * q
	if cap(bk.keys) < n {
		bk.keys = make([]uint64, n)
	}
	bk.keys = bk.keys[:n]
	bk.q = q
	return bk
}

func (bk *blockKeys) release() { keyBlockPool.Put(bk) }

// negBlock holds pre-negated copies of a query block, backed by one flat
// pooled buffer, for repetitions whose query hasher takes the HashNeg
// fast path. Negating the block once replaces the per-querier negation
// scratch for the whole batch.
type negBlock struct {
	flat []float64
	pts  [][]float64
}

var negBlockPool = sync.Pool{New: func() any { return new(negBlock) }}

// acquireNegBlock returns the negations of queries, or nil when the point
// type is not []float64 (the HashNeg fast path does not apply then).
func acquireNegBlock[P any](queries []P) *negBlock {
	nb := negBlockPool.Get().(*negBlock)
	total := 0
	for _, q := range queries {
		fq, ok := any(q).([]float64)
		if !ok {
			nb.release()
			return nil
		}
		total += len(fq)
	}
	if cap(nb.flat) < total {
		nb.flat = make([]float64, total)
	}
	nb.flat = nb.flat[:total]
	if cap(nb.pts) < len(queries) {
		nb.pts = make([][]float64, len(queries))
	}
	nb.pts = nb.pts[:len(queries)]
	off := 0
	for j, q := range queries {
		fq := any(q).([]float64)
		dst := nb.flat[off : off+len(fq)]
		for i, v := range fq {
			dst[i] = -v
		}
		nb.pts[j] = dst
		off += len(fq)
	}
	return nb
}

func (nb *negBlock) release() { negBlockPool.Put(nb) }

// blockHash pre-hashes a query block repetition by repetition: for each of
// the L draws it computes all len(queries) keys before moving to the next
// draw, so each repetition's parameters (rotation signs, packed Gaussian
// rows, ...) are loaded into cache once per block instead of once per
// query. Per repetition it picks the fastest equivalent path:
//
//  1. core.BatchHasher, when the family's query hasher implements it —
//     one HashBatch call over the whole block;
//  2. the HashNeg pre-negated path, using the block's shared negations;
//  3. scalar g.Hash per query.
//
// All three produce exactly the keys the scalar per-query path produces
// (BatchHasher's contract requires bit-identical keys), so queriers
// consuming the block return identical results and stats. Repetitions are
// fanned across min(workers, L) goroutines. Returns nil — meaning "hash
// per query as usual" — for blocks too small to benefit.
//
// Hash evaluations are deliberately NOT counted here: queriers count them
// at consumption time (one per repetition scanned), so the metrics plane
// reports identical totals whether or not a batch was pre-hashed.
func (rp *readPath[P]) blockHash(queries []P, workers int) *blockKeys {
	if len(queries) < blockHashMinQueries || len(rp.pairs) == 0 {
		return nil
	}
	return rp.blockHashAll(queries, workers)
}

// blockHashAll is blockHash without the minimum-batch cutoff: it always
// materializes the key block (callers that need every query's keys — the
// signed batch path feeding the serving edge's hot-query cache — use it so
// even a one-query batch yields a signature). Requires len(queries) > 0
// and L > 0.
func (rp *readPath[P]) blockHashAll(queries []P, workers int) *blockKeys {
	qn := len(queries)
	pairs := rp.pairs
	l := len(pairs)
	negG := rp.negG
	var negs [][]float64
	var nb *negBlock
	for i, nh := range negG {
		if nh == nil {
			continue
		}
		// Only materialize negations for repetitions that cannot batch.
		if _, ok := pairs[i].G.(core.BatchHasher[P]); !ok {
			if nb = acquireNegBlock(queries); nb != nil {
				negs = nb.pts
			}
			break
		}
	}
	bk := acquireBlockKeys(l, qn)
	hashRep := func(i int) {
		out := bk.keys[i*qn : (i+1)*qn]
		if _, ok := pairs[i].G.(core.BatchHasher[P]); !ok && negG[i] != nil && negs != nil {
			for j, nq := range negs {
				out[j] = negG[i].HashNeg(nq)
			}
			return
		}
		hashColumn(pairs[i].G, queries, out)
	}
	if workers > l {
		workers = l
	}
	if workers <= 1 {
		for i := 0; i < l; i++ {
			hashRep(i)
		}
	} else {
		var cursor atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= l {
						return
					}
					hashRep(i)
				}
			}()
		}
		wg.Wait()
	}
	if nb != nil {
		nb.release()
	}
	return bk
}
