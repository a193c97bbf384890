package serve

import (
	"strconv"
	"sync/atomic"
	"time"
)

// admission is the in-flight budget: a semaphore bounding how many
// requests may hold server resources at once, plus the drain latch. A
// request acquires a slot before its body is even read and releases it
// when its response is written (or its context dies); when the budget is
// exhausted the edge sheds with 429 + Retry-After instead of queueing
// unboundedly.
type admission struct {
	budget   chan struct{}
	draining atomic.Bool
	retry    string // Retry-After header value, in whole seconds
}

func newAdmission(maxInFlight int, retryAfter time.Duration) *admission {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return &admission{
		budget: make(chan struct{}, maxInFlight),
		retry:  strconv.Itoa(secs),
	}
}

// tryAcquire claims an in-flight slot without blocking; a false return
// means the budget is exhausted and the request must be shed.
func (a *admission) tryAcquire() bool {
	select {
	case a.budget <- struct{}{}:
		mInFlight.Add(1)
		return true
	default:
		return false
	}
}

// release returns a slot claimed by tryAcquire.
func (a *admission) release() {
	<-a.budget
	mInFlight.Add(-1)
}

// inFlight reports the number of currently held slots (test hook: every
// handler path, including sheds, timeouts, and fuzzed garbage, must leave
// this at zero).
func (a *admission) inFlight() int { return len(a.budget) }

// beginDrain flips the edge into draining mode: new requests are refused
// with 503 while already-admitted ones run to completion.
func (a *admission) beginDrain() { a.draining.Store(true) }

func (a *admission) isDraining() bool { return a.draining.Load() }
