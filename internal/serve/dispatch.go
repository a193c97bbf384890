package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dsh/internal/obs"
)

// The coalescer merges queries arriving on separate connections into one
// batch call against the serving snapshot. Handlers park a pending op in
// a bounded intake queue and block on its done channel; a single
// dispatcher goroutine blocks for the first parked query, sweeps whatever
// else is already parked (up to the batch size) and flushes at once. It
// is work-conserving: no timer ever holds a query back while the
// dispatcher is idle. Batches still form under load, because queries
// that arrive while one flush runs park in the queue and leave together
// in the next sweep. Batching is what makes the repetition-blocked
// pre-hash and the shared worker pool pay off across connections — one
// block hash and one scratch acquisition serve every query in the flush.

// pending is one parked query: the handler fills it, offers it to the
// coalescer, and waits on done. done is buffered so the dispatcher's send
// never blocks even if the handler already gave up.
type pending struct {
	ctx context.Context
	vec []float64
	max int
	fp  uint64
	enq time.Time // enqueue time, for the queue-wait histogram
	// canceled flags an abandoned query (handler deadline fired while it
	// was parked); the dispatcher skips it instead of wasting batch work.
	canceled atomic.Bool
	done     chan result
}

// result is the dispatcher's answer to one pending query.
type result struct {
	ids    []int
	epoch  uint64
	cached bool
}

// coalescer owns the intake queue and the dispatch loop.
type coalescer struct {
	intake    chan *pending
	batchSize int
	// shedDepth is the backpressure watermark: offers are refused once the
	// queue holds this many parked queries, before the channel is even
	// full, so shedding kicks in while the dispatcher still has headroom.
	shedDepth int
	flush     func([]*pending)
	stripe    uint32

	// received counts queries the dispatcher has taken off the intake
	// queue; the deterministic admission tests synchronize on it.
	received atomic.Int64

	stopOnce sync.Once
	stopped  chan struct{} // closed by stop(); run drains and exits
	drained  chan struct{} // closed by run when the queue is fully flushed
}

func newCoalescer(batchSize, queueDepth, shedDepth int, flush func([]*pending)) *coalescer {
	return &coalescer{
		intake:    make(chan *pending, queueDepth),
		batchSize: batchSize,
		shedDepth: shedDepth,
		flush:     flush,
		stripe:    obs.NextStripe(),
		stopped:   make(chan struct{}),
		drained:   make(chan struct{}),
	}
}

// offer parks p in the intake queue. It refuses — caller sheds with 429 —
// when the queue is over the shed watermark or full.
func (c *coalescer) offer(p *pending) bool {
	if len(c.intake) >= c.shedDepth {
		return false
	}
	select {
	case c.intake <- p:
		mQueueDepth.Add(1)
		return true
	default:
		return false
	}
}

// run is the dispatcher loop; it exits only after stop(), once every
// parked query has been flushed.
func (c *coalescer) run() {
	defer close(c.drained)
	batch := make([]*pending, 0, c.batchSize)
	for {
		// Block for the batch's first query (or for shutdown), sweep
		// whatever else is already parked, and flush at once.
		batch = batch[:0]
		select {
		case p := <-c.intake:
			c.took()
			batch = append(batch, p)
		case <-c.stopped:
			c.drainAll(batch)
			return
		}
		c.fill(&batch)
		c.dispatch(batch)
	}
}

// fill non-blockingly moves parked queries into batch up to batchSize.
func (c *coalescer) fill(batch *[]*pending) {
	for len(*batch) < c.batchSize {
		select {
		case p := <-c.intake:
			c.took()
			*batch = append(*batch, p)
		default:
			return
		}
	}
}

// took records one query leaving the intake queue.
func (c *coalescer) took() {
	mQueueDepth.Add(-1)
	c.received.Add(1)
}

// dispatch records batch metrics and hands the non-empty batch to the
// flush hook.
func (c *coalescer) dispatch(batch []*pending) {
	now := time.Now()
	for _, p := range batch {
		mQueueWait.Observe(c.stripe, uint64(now.Sub(p.enq)))
	}
	mFlushes.Inc(c.stripe)
	mBatchSize.Observe(c.stripe, uint64(len(batch)))
	if len(batch) > 1 {
		mCoalesced.Inc(c.stripe)
	}
	c.flush(batch)
}

// drainAll flushes the partial batch in hand plus everything still parked
// in the queue, in batchSize chunks. Runs only on the stop path, after
// offer can no longer admit new queries (the server flips draining before
// calling stop).
func (c *coalescer) drainAll(batch []*pending) {
	for {
		c.fill(&batch)
		if len(batch) == 0 {
			return
		}
		c.dispatch(batch)
		batch = batch[:0]
	}
}

// stop shuts the dispatcher down; wait on done() for the queue to empty.
func (c *coalescer) stop() { c.stopOnce.Do(func() { close(c.stopped) }) }

// done is closed once every parked query has been flushed after stop.
func (c *coalescer) done() <-chan struct{} { return c.drained }
