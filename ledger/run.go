package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// config is one invocation's settings.
type config struct {
	server  string  // dshserve binary
	work    string  // scratch directory inside the checkout
	seed    uint64  // input seed
	seconds float64 // length of the timed phase
	trace   bool    // traced run: per-layer replays and a trace file
	log     io.Writer
}

// setups is how many times each run sets up; setup_s is the median.
const setups = 3

// run is one workload run in progress.
type run struct {
	cfg config
	sp  spec
	in  *inputs
	rec *record
	tr  *tracer
	c   *client
	srv *server // the server currently up, if any
	dir string  // durable directory of the current server

	preloadIDs []int // ids the serving server acknowledged for the preload
	timed      []outcome
	probes     []outcome // the probe set before and after the restart
	before     *vars     // /debug/vars at the start and end of the timed phase
	after      *vars
	faults     int64 // highest durable fault gauge seen

	rep    *replica
	sample []sampled // timed requests checked against the replica
}

func runWorkload(cfg config, sp spec) (*record, error) {
	r := &run{cfg: cfg, sp: sp, rec: &record{
		Workload: sp.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Correct: true, Metrics: map[string]metricValue{}, Env: currentEnvironment(),
	}}
	if cfg.trace {
		r.tr = newTracer()
	}
	r.c = newClient(r.tr)
	defer func() {
		if r.srv != nil {
			r.srv.kill()
		}
		if r.dir != "" {
			_ = os.RemoveAll(r.dir)
		}
		if r.rep != nil {
			r.rep.ix.Close()
		}
	}()
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	r.in = generate(sp, cfg.seed, cfg.seconds)
	r.logf("%s: %d points, %d timed requests, seed %d", sp.name, len(r.in.points), len(r.in.timed), cfg.seed)

	type step struct {
		name string
		fn   func() error
	}
	steps := []step{
		{"set-up", r.setup},
		{"warm-up", r.warmUp},
		{"timed phase", r.timedPhase},
		{"restart", r.restart},
		{"checks", r.check},
	}
	if cfg.trace {
		steps = append(steps, step{"layer replay", r.replayLayers})
	}
	for _, st := range steps {
		if err := st.fn(); err != nil {
			return nil, fmt.Errorf("%s %s: %w", sp.name, st.name, err)
		}
	}
	return r.rec, nil
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.cfg.log, format+"\n", args...)
}

// phase opens a trace span for one phase of the run; the returned func
// closes it.
func (r *run) phase(name string) (int64, func()) {
	if r.tr == nil {
		return 0, func() {}
	}
	id := r.tr.open(name, 0, 0)
	return id, func() { r.tr.close(id) }
}

func (r *run) startServer(args []string) error {
	srv, err := startServer(r.cfg.server, args, r.c.hc)
	if err != nil {
		return err
	}
	r.srv = srv
	r.c.base = srv.base
	return nil
}

func (r *run) stopServer() error {
	err := r.srv.stop()
	r.srv = nil
	r.c.hc.CloseIdleConnections()
	return err
}

// setup execs a fresh server and loads the preload, setups times;
// setup_s is the median exec-to-last-ack time. The last server stays up
// for the timed phase.
func (r *run) setup() error {
	pid, end := r.phase("phase.setup")
	defer end()
	var times []float64
	for k := 0; k < setups; k++ {
		if r.srv != nil {
			if err := r.stopServer(); err != nil {
				return err
			}
		}
		if r.sp.durable {
			if r.dir != "" {
				if err := os.RemoveAll(r.dir); err != nil {
					return err
				}
			}
			r.dir = filepath.Join(r.cfg.work, fmt.Sprintf("%s-store-%d", r.sp.name, k))
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
		}
		if err := r.startServer(r.sp.serverArgs(r.cfg.seed, 0, r.dir)); err != nil {
			return err
		}
		ids, err := r.preload(pid)
		if err != nil {
			return err
		}
		times = append(times, time.Since(r.srv.started).Seconds())
		if r.preloadIDs != nil && !slices.Equal(ids, r.preloadIDs) {
			r.rec.fail("preload ids differ between set-ups %d and %d", k-1, k)
		}
		r.preloadIDs = ids
	}
	r.in.preload = nil // the encoded preload is the run's largest input; free it before timing
	r.rec.set("setup_s", median(times), len(times))
	r.logf("  setup_s   %v (median of %v)", median(times), times)
	return nil
}

// preload inserts every point in order, pipelined on one connection: the
// server handles a connection's requests one after another, so ids stay
// deterministic, and set-up time is the server's ingest time rather than
// a chain of round trips.
func (r *run) preload(parent int64) ([]int, error) {
	ids := make([]int, 0, len(r.in.preload))
	err := pipeline(r.srv.addr, "/v1/insert", r.in.preload, func(i int, start time.Time, status int, body []byte) error {
		r.tr.record("client.request", parent, 0, start, time.Now())
		if status != 200 {
			return fmt.Errorf("preload insert %d: HTTP %d: %.200s", i, status, body)
		}
		var ack struct {
			ID int `json:"id"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			return fmt.Errorf("preload insert %d: %w", i, err)
		}
		ids = append(ids, ack.ID)
		return nil
	})
	return ids, err
}

func describe(rep reply) string {
	if rep.err != nil {
		return rep.err.Error()
	}
	b := rep.body
	if len(b) > 200 {
		b = b[:200]
	}
	return fmt.Sprintf("HTTP %d: %s", rep.status, b)
}

// warmUp sends the warm-up requests: the hot set on the cached workloads,
// a few fresh requests on the others.
func (r *run) warmUp() error {
	pid, end := r.phase("phase.warmup")
	defer end()
	outs := openLoop(len(r.in.warm), math.Inf(1), maxConns, func(i int) reply {
		q := r.in.warm[i]
		return r.c.do("POST", q.path, q.body, pid)
	})
	for i := range outs {
		r.rec.Attempted++
		if !outs[i].ok() {
			r.countFailed(&outs[i])
		}
	}
	return nil
}

// scrape reads the server's /debug/vars.
func (r *run) scrape(parent int64) (*vars, error) {
	start := time.Now()
	rep := r.c.do("GET", "/debug/vars", nil, parent)
	if !rep.ok() {
		return nil, fmt.Errorf("scrape /debug/vars: %s", describe(rep))
	}
	r.tr.record("debug.scrape", parent, rep.req, start, time.Now())
	v, err := decodeVars(rep.body)
	if err != nil {
		return nil, err
	}
	if f := v.Gauges["dsh_durable_faults"]; f > r.faults {
		r.faults = f
	}
	return v, nil
}

// timedPhase drives the workload's traffic for the configured seconds and
// derives the read metrics and the scrape-based layer metrics.
func (r *run) timedPhase() error {
	pid, end := r.phase("phase.timed")
	defer end()
	var err error
	if r.before, err = r.scrape(pid); err != nil {
		return err
	}
	cpu0, err := cpuTime(r.srv.pid())
	if err != nil {
		return err
	}
	send := func(i int) reply {
		q := r.in.timed[i]
		return r.c.do("POST", q.path, q.body, pid)
	}
	r.timed = openLoop(len(r.in.timed), r.sp.rate, maxConns, send)
	cpu1, err := cpuTime(r.srv.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSS(r.srv.pid())
	if err != nil {
		return err
	}
	if r.after, err = r.scrape(pid); err != nil {
		return err
	}
	r.readMetrics(cpu1-cpu0, rss)
	r.scrapeMetrics()
	return nil
}

// latency returns a timed request's latency for the percentiles and
// counts it as attempted, and as failed on a transport error, a non-2xx
// status or a latency over the workload's limit. A failed request enters
// the percentiles at no less than the limit: it missed it. Wrong answers
// are added by the checks.
func (r *run) latency(o *outcome) time.Duration {
	r.rec.Attempted++
	if o.ok() && o.latency() <= r.sp.limit {
		return o.latency()
	}
	r.countFailed(o)
	return max(o.latency(), r.sp.limit)
}

func (r *run) readMetrics(cpu time.Duration, rss int64) {
	var reads, writes []time.Duration
	ops := 0
	for i := range r.timed {
		o := &r.timed[i]
		q := r.in.timed[o.idx]
		lat := r.latency(o)
		if q.kind == opQuery {
			reads = append(reads, lat)
		} else {
			writes = append(writes, lat)
		}
		if !o.failed {
			ops++
		}
	}
	r.percentiles("read", "read_p50_ms", "client.read_tail_ms", reads)
	// Only mixed-durable writes while timed; elsewhere both write metrics
	// read 0 with no samples.
	r.percentiles("write", "client.write_p50_ms", "client.write_tail_ms", writes)
	r.rec.set("serve.cpu_us_per_op", ratio(float64(cpu.Microseconds()), float64(ops)), ops)
	r.rec.set("server_rss_mb", float64(rss)/(1<<20), 1)
	r.logf("  server cpu %v for %d ops (queries and writes); peak rss %.1f MB", cpu, ops, float64(rss)/(1<<20))
}

// percentiles sets the median and the tail of a latency sample, the tail
// at the highest percentile the sample supports (the maximum of a sample
// too small for any).
func (r *run) percentiles(kind, p50, tail string, ds []time.Duration) {
	s := sortedMs(ds)
	p, ok := highestTail(len(s))
	if !ok {
		p = 100
	}
	r.rec.set(p50, quantile(s, 0.50), len(s))
	r.rec.set(tail, quantile(s, p/100), len(s))
	m := r.rec.Metrics[tail]
	m.P = p
	r.rec.Metrics[tail] = m
	if len(s) > 0 {
		r.logf("  %-5s n=%d p50=%.3fms p%g=%.3fms", kind, len(s), quantile(s, 0.5), p, quantile(s, p/100))
	}
}

// scrapeMetrics derives the layer metrics that come from dshserve's own
// counters: deltas between the scrapes around the timed phase.
func (r *run) scrapeMetrics() {
	b, a := r.before, r.after
	qv, writes := 0, 0
	var reqBytes, respBytes, queryService, lags []float64
	for i := range r.timed {
		o := &r.timed[i]
		q := r.in.timed[o.idx]
		reqBytes = append(reqBytes, float64(len(q.body)))
		respBytes = append(respBytes, float64(len(o.body)))
		lags = append(lags, float64(o.lag)/float64(time.Millisecond))
		switch {
		case !o.ok():
		case q.kind == opQuery:
			qv++
			queryService = append(queryService, float64(o.service())/1e3)
		default:
			writes++
		}
	}
	kq := float64(qv) / 1000

	wait, _ := histMean(b, a, "dsh_serve_queue_wait_ns")
	r.rec.set("serve.queue_wait_us", wait/1e3, qv)
	bs, nb := histMean(b, a, "dsh_serve_batch_size")
	r.rec.set("serve.batch_size", bs, nb)
	req, nreq := histMean(b, a, "dsh_serve_request_ns")
	r.rec.set("serve.request_us", req/1e3, nreq)
	hits := delta(b, a, "dsh_serve_cache_hits_total")
	lookups := hits + delta(b, a, "dsh_serve_cache_misses_total") + delta(b, a, "dsh_serve_cache_stale_total")
	r.rec.set("serve.cache_hit_ratio", ratio(hits, lookups), int(lookups))
	r.rec.set("serve.snapshot_refreshes_per_kq", ratio(delta(b, a, "dsh_serve_snapshot_refreshes_total"), kq), qv)
	r.rec.set("serve.cache_stale_per_kq", ratio(delta(b, a, "dsh_serve_cache_stale_total"), kq), qv)
	r.rec.set("serve.shed", delta(b, a, "dsh_serve_shed_total"), len(r.timed))
	r.rec.set("serve.timeouts", delta(b, a, "dsh_serve_timeouts_total"), len(r.timed))

	// dshserve times queries only (enqueue to reply written), so the
	// transport share is taken over query requests alone.
	r.rec.set("client.transport_us", mean(queryService)-req/1e3, len(queryService))
	r.rec.set("client.request_bytes", mean(reqBytes), len(reqBytes))
	r.rec.set("client.response_bytes", mean(respBytes), len(respBytes))
	slices.Sort(lags)
	r.rec.set("client.gen_lag_p99_ms", quantile(lags, 0.99), len(lags))
	r.logf("  generator lag p50=%.3fms p99=%.3fms max=%.3fms", quantile(lags, 0.5), quantile(lags, 0.99), quantile(lags, 1))

	for _, m := range []struct{ metric, counter string }{
		{"index.probes_per_query", "dsh_query_probes_total"},
		{"index.candidates_per_query", "dsh_query_candidates_total"},
		{"index.distinct_per_query", "dsh_query_distinct_total"},
		{"sphere.hash_evals_per_query", "dsh_query_hash_evals_total"},
	} {
		r.rec.set(m.metric, ratio(delta(b, a, m.counter), float64(qv)), qv)
	}
	r.rec.set("index.detaches", delta(b, a, "dsh_freezes_async_total"), 1)
	compactions := 0.0
	for _, c := range []string{"dsh_compactions_all_total", "dsh_compactions_tiered_total", "dsh_compactions_upper_total", "dsh_compactions_gc_total"} {
		compactions += delta(b, a, c)
	}
	r.rec.set("index.compactions", compactions, 1)
	r.rec.set("durable.fsyncs_per_write", ratio(delta(b, a, "dsh_wal_fsyncs_total"), float64(writes)), writes)
	r.rec.set("durable.wal_bytes_per_write", ratio(delta(b, a, "dsh_wal_append_bytes_total"), float64(writes)), writes)
}

// restart answers the probe set, restarts the server (SIGTERM drain,
// exec, healthy), requires the same answers after it and stops the
// server. An in-memory server restarts with -points and rebuilds the
// preload in-process, its only way back to the same data; a durable one
// recovers its directory.
func (r *run) restart() error {
	pid, end := r.phase("phase.restart")
	defer end()
	ref, err := r.probe(pid)
	if err != nil {
		return err
	}
	if err := r.stopServer(); err != nil {
		return err
	}
	if err := r.startServer(r.sp.serverArgs(r.cfg.seed, len(r.in.points), r.dir)); err != nil {
		return err
	}
	r.rec.set("serve.restart_s", time.Since(r.srv.started).Seconds(), 1)
	got, err := r.probe(pid)
	if err != nil {
		return err
	}
	for i := range got {
		if !slices.Equal(got[i], ref[i]) {
			r.rec.fail("probe %d answered %d ids after the restart, %d before", i, len(got[i]), len(ref[i]))
			break
		}
	}
	v, err := r.scrape(pid)
	if err != nil {
		return err
	}
	if r.sp.durable {
		m, _ := histMean(&vars{}, v, "dsh_recover_manifest_ns")
		s, _ := histMean(&vars{}, v, "dsh_recover_segments_ns")
		p, _ := histMean(&vars{}, v, "dsh_recover_replay_ns")
		r.logf("  server recovery per shard: manifest %.3fms segments %.3fms replay %.3fms", m/1e6, s/1e6, p/1e6)
	}
	r.logf("  restart %.3fs", r.rec.Metrics["serve.restart_s"].Value)
	return r.stopServer()
}

// probe sends the probe set and returns each probe's ids. Failed probes
// count as failed requests and answer nil.
func (r *run) probe(parent int64) ([][]int, error) {
	outs := openLoop(len(r.in.probes), math.Inf(1), maxConns, func(i int) reply {
		q := r.in.probes[i]
		return r.c.do("POST", q.path, q.body, parent)
	})
	ids := make([][]int, len(outs))
	for i := range outs {
		o := &outs[i]
		r.rec.Attempted++
		if !o.ok() {
			r.countFailed(o)
			continue
		}
		a, err := decodeAnswer(o.body)
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		ids[i] = a.IDs
	}
	r.probes = append(r.probes, outs...)
	return ids, nil
}
