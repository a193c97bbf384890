package serve

import (
	"bytes"
	"hash/maphash"
	"sync"
	"unsafe"

	"dsh/internal/obs"
)

// The hot-query cache answers repeated queries without touching the index
// — no hash evaluations, no bucket probes. Its canonical key is the
// per-repetition hash-key signature QueryBatchSigned folds per query: two
// queries with equal signatures probed identical buckets in every
// repetition, so against one snapshot their results are identical. The
// signature is only available *after* hashing, though, and a cache whose
// lookup requires hashing saves nothing. So the cache is double-indexed:
//
//   - bySig: signature -> entry, the canonical, collision-meaningful key.
//     Distinct vectors that share a signature share one entry (they
//     provably share results).
//   - byFP: a seeded fingerprint of the raw vector bits -> the query
//     stored under it and its entry, the lookup path. A hit compares the
//     stored vector and bound bit for bit before it short-circuits
//     hashing, so a fingerprint collision costs a miss, never a wrong
//     answer.
//
// Entries are stamped with the snapshot epoch they were computed against;
// a lookup that finds an entry from an older epoch discards it (counted
// as stale), so a mutation can never be masked by the cache — this is the
// invariant the cache-invalidation differential test pins.
type queryCache struct {
	mu     sync.Mutex
	max    int
	stripe uint32
	bySig  map[uint64]*cacheEntry
	byFP   map[uint64]fpSlot
	// Intrusive LRU list: head is most recent, tail next to evict.
	head, tail *cacheEntry
}

type cacheEntry struct {
	sig   uint64
	epoch uint64
	// fps are all fingerprints aliased to this entry (distinct vectors
	// whose signatures collided onto the same result set).
	fps        []uint64
	ids        []int
	prev, next *cacheEntry
}

// fpSlot is one byFP entry: the exact query it was stored for, and the
// entry holding that query's result.
type fpSlot struct {
	vec []float64
	max int
	e   *cacheEntry
}

// holds reports whether the slot was stored for exactly p's query.
func (s fpSlot) holds(p *pending) bool {
	return s.max == p.max && bytes.Equal(rawBits(s.vec), rawBits(p.vec))
}

func newQueryCache(max int) *queryCache {
	return &queryCache{
		max:    max,
		stripe: obs.NextStripe(),
		bySig:  make(map[uint64]*cacheEntry, max),
		byFP:   make(map[uint64]fpSlot, max),
	}
}

// fpSeed keys fingerprints per process, so colliding vectors cannot be
// prepared outside it.
var fpSeed = maphash.MakeSeed()

// fingerprint hashes the raw bit pattern of vec and folds in the
// candidate bound, so queries that differ only in their budget land in
// different slots.
func fingerprint(vec []float64, max int) uint64 {
	return mixSig(maphash.Bytes(fpSeed, rawBits(vec)), max)
}

// rawBits views vec's float bits as bytes in memory order; they never
// leave the process, so byte order does not matter.
func rawBits(vec []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vec))), 8*len(vec))
}

// lookup returns the cached ids for p if its fingerprint slot holds
// exactly p's query and the entry is at exactly epoch. Misses (a
// fingerprint holding another query included) and stale discards bump
// their counters; a hit refreshes LRU position. The returned slice is
// shared — callers must not mutate it.
func (c *queryCache) lookup(p *pending, epoch uint64) ([]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.byFP[p.fp]
	if !ok || !s.holds(p) {
		mCacheMisses.Inc(c.stripe)
		return nil, false
	}
	if s.e.epoch != epoch {
		mCacheStale.Inc(c.stripe)
		c.remove(s.e)
		return nil, false
	}
	mCacheHits.Inc(c.stripe)
	c.moveToFront(s.e)
	return s.e.ids, true
}

// store records ids as the result for query p with the given signature,
// computed against epoch. If an entry for the signature already exists at
// this epoch p's fingerprint is aliased onto it (a new vector provably
// sharing the result set); otherwise a fresh entry is inserted and the
// LRU trimmed to the size bound. p's fingerprint slot is taken over
// either way.
func (c *queryCache) store(sig uint64, p *pending, epoch uint64, ids []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.bySig[sig]
	if e != nil && e.epoch != epoch {
		c.remove(e) // superseded by a newer epoch's result
		e = nil
	}
	if e == nil {
		e = &cacheEntry{sig: sig, epoch: epoch, ids: ids}
		c.bySig[sig] = e
	}
	c.moveToFront(e) // links a fresh entry at the head
	if s, ok := c.byFP[p.fp]; !ok || s.e != e {
		e.fps = append(e.fps, p.fp)
	}
	c.byFP[p.fp] = fpSlot{vec: p.vec, max: p.max, e: e}
	for len(c.bySig) > c.max && c.tail != nil {
		mCacheEvict.Inc(c.stripe)
		c.remove(c.tail)
	}
}

// len reports the number of live entries (test hook).
func (c *queryCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bySig)
}

// remove unlinks e from both maps and the LRU list. Caller holds mu.
func (c *queryCache) remove(e *cacheEntry) {
	delete(c.bySig, e.sig)
	for _, fp := range e.fps {
		if c.byFP[fp].e == e {
			delete(c.byFP, fp)
		}
	}
	c.unlink(e)
}

func (c *queryCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *queryCache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *queryCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
