package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is the generator's HTTP side. Every call of a run goes through
// one transport capped at maxConns connections per server.
type client struct {
	hc    *http.Client
	tr    *tracer
	base  string // current server
	calls atomic.Int64
}

func newClient(tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 30 * time.Second}, tr: tr}
}

// reply is what one call returned. Req identifies the call in the trace.
type reply struct {
	status int
	body   []byte
	req    int64
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status/100 == 2 }

// do makes one call and reads the whole response. parent is the trace
// span of the phase the call belongs to.
func (c *client) do(method, path string, body []byte, parent int64) reply {
	r := reply{req: c.calls.Add(1)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		r.err = err
		return r
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.status = resp.StatusCode
	c.tr.record("client.request", parent, r.req, start, time.Now())
	return r
}

// outcome is what the generator observed for one request. due is its
// scheduled send time; lag is the generator's own lateness: how long after
// the later of its due time and the moment a connection freed up the
// request was sent.
type outcome struct {
	idx             int // request index
	due, sent, done time.Time
	lag             time.Duration
	reply
	failed bool // counted as a failed request
}

// latency is the time from due to reply less the generator's own
// lateness: the service time plus any wait for a free connection, so a
// slow reply delays the clocks of the requests queued behind it, while a
// generator woken late (Go's timers, or a host that descheduled it) does
// not count against the server.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) - o.lag }

// service is the time from send to reply.
func (o *outcome) service() time.Duration { return o.done.Sub(o.sent) }

// sendFunc sends request i and returns the reply.
type sendFunc func(i int) reply

// openLoop sends n requests on a fixed schedule of rate per second over
// conns connections. Request i is due at start+i/rate whatever happened
// to earlier ones; when every connection is busy it waits for one, and
// that wait counts in its latency. An infinite rate sends every request
// as soon as a connection is free.
func openLoop(n int, rate float64, conns int, send sendFunc) []outcome {
	out := make([]outcome, n)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
				ready := time.Now()
				if d := due.Sub(ready); d > 0 {
					time.Sleep(d)
					ready = due
				}
				sent := time.Now()
				r := send(i)
				out[i] = outcome{idx: i, due: due, sent: sent, done: time.Now(), lag: sent.Sub(ready), reply: r}
			}
		}()
	}
	wg.Wait()
	return out
}

// pipeline POSTs every body to path on one new connection to addr,
// writing requests ahead of the replies (HTTP/1.1 pipelining), and hands
// each reply to got in order, with the time the previous reply (or the
// first request) completed. It stops at the first error got returns.
func pipeline(addr, path string, bodies [][]byte, got func(i int, start time.Time, status int, body []byte) error) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	written := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(conn, 64<<10)
		for _, b := range bodies {
			fmt.Fprintf(w, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", path, addr, len(b))
			if _, err := w.Write(b); err != nil {
				written <- err
				return
			}
		}
		written <- w.Flush()
	}()
	// Closing the connection unblocks a writer still sending after an
	// early return; its result is then collected and dropped.
	defer func() {
		conn.Close()
		if written != nil {
			<-written
		}
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	start := time.Now()
	for i := range bodies {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("reply %d: %w", i, err)
		}
		if err := got(i, start, resp.StatusCode, body); err != nil {
			return err
		}
		start = time.Now()
	}
	err = <-written
	written = nil
	return err
}
