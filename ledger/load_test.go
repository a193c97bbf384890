package main

import (
	"testing"
	"time"
)

// An open loop keeps its schedule through a stall: with one connection,
// a request that takes 50ms delays every request due during the stall,
// and their latencies, timed from their due times, include the wait.
// The generator itself is not late: it sends as soon as the connection
// frees up.
func TestOpenLoopStallShowsInEveryLaterLatency(t *testing.T) {
	const (
		n     = 20
		stall = 5
		pause = 50 * time.Millisecond
	)
	outs := openLoop(n, 1000, 1, func(i int) reply {
		if i == stall {
			time.Sleep(pause)
		}
		return reply{status: 200}
	})
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i := range outs {
		o := &outs[i]
		if o.idx != i {
			t.Fatalf("outcome %d has idx %d", i, o.idx)
		}
		// Request i is due (i-stall) ms after the stalled one and can only
		// be sent once the stall is over.
		floor := pause - time.Duration(i-stall)*time.Millisecond
		if i > stall && o.latency() < floor {
			t.Errorf("request %d: latency %v, want at least %v (the stall)", i, o.latency(), floor)
		}
		if i > stall && o.lag > 10*time.Millisecond {
			t.Errorf("request %d: generator lag %v; waiting for the connection is not generator lag", i, o.lag)
		}
	}
	if outs[stall+1].sent.Before(outs[stall].done) {
		t.Errorf("request %d was sent before the stalled request finished on the only connection", stall+1)
	}
}

// Latency counts the wait for a free connection but not the generator's
// own lateness.
func TestLatencyExcludesGeneratorLag(t *testing.T) {
	due := time.Unix(0, 0)
	o := outcome{due: due, sent: due.Add(5 * time.Millisecond), done: due.Add(7 * time.Millisecond), lag: 3 * time.Millisecond}
	// Sent 5ms after its due time: 2ms waiting for a connection, then 3ms
	// of generator lateness; 2ms of service.
	if got, want := o.latency(), 4*time.Millisecond; got != want {
		t.Errorf("latency %v, want %v (connection wait plus service)", got, want)
	}
}
