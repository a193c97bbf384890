package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsh"
	"dsh/internal/index"
	"dsh/internal/serve"
	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// serveLoadConfig parameterizes the -serve mode: a closed-loop load
// generator driving real HTTP connections against a dshserve-compatible
// endpoint. With Addr empty the benchmark self-hosts a server on a
// loopback listener and additionally reports the coalescing and cache
// metrics only visible from inside the process.
type serveLoadConfig struct {
	Points    int     // self-host: preloaded points
	Queries   int     // total requests across all connections
	Dim       int     // vector dimension
	Seed      uint64  // rng seed for data and op mix
	Shards    int     // self-host: shard count
	Family    string  // self-host: serving hash family ("" = simhash)
	Routing   string  // "hash" (or "") for keyed inserts, "rr" for unkeyed ones
	Addr      string  // target base address; "" = self-host on 127.0.0.1:0
	Conns     int     // concurrent client connections
	WriteFrac float64 // fraction of ops that are inserts
	HotFrac   float64 // fraction of queries drawn from the hot set
	HotSet    int     // distinct hot query vectors (cacheable working set)
	BatchSize int     // self-host: coalescer flush size
	Workers   int     // self-host: batch engine workers
}

// runServeLoad drives the serving edge over real sockets: Conns
// goroutines send a WriteFrac/1-WriteFrac mix of inserts (keyed unless
// Routing is "rr") and single queries, queries drawn from a HotSet-sized
// working set with probability HotFrac (exercising the hot-query cache)
// and from the full sphere otherwise. Reports QPS and client-observed latency percentiles
// split by op class, plus shed counts; self-hosted runs add dispatcher
// batch and cache-hit-rate lines from the in-process metrics plane.
func runServeLoad(w io.Writer, cfg serveLoadConfig) error {
	if cfg.Conns <= 0 || cfg.HotSet <= 0 {
		return fmt.Errorf("-conns and -hotset must be positive")
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 || cfg.HotFrac < 0 || cfg.HotFrac > 1 {
		return fmt.Errorf("-writefrac and -hotfrac must be in [0, 1]")
	}
	switch cfg.Routing {
	case "", "hash", "rr":
	default:
		return fmt.Errorf("unknown -routing %q (want hash or rr)", cfg.Routing)
	}

	base := cfg.Addr
	selfHosted := base == ""
	var before dsh.MetricsSnapshot
	if selfHosted {
		famName := cfg.Family
		if famName == "" {
			famName = "simhash"
		}
		fam, L, err := workload.ServingFamily(famName, cfg.Dim)
		if err != nil {
			return err
		}
		routing := index.RouteHash
		if cfg.Routing == "rr" {
			routing = index.RouteRoundRobin
		}
		ix := index.NewSharded(xrand.New(cfg.Seed), fam, L, nil,
			index.ShardOptions{Shards: cfg.Shards, Routing: routing, Dynamic: serve.StoreOptions()})
		defer ix.Close()
		for i, p := range workload.SpherePoints(xrand.New(cfg.Seed+1), cfg.Points, cfg.Dim) {
			if routing == index.RouteHash {
				ix.InsertKeyed(uint64(i), p)
			} else {
				ix.Insert(p)
			}
		}
		srv := serve.New(ix, serve.Options{
			Dim:       cfg.Dim,
			BatchSize: cfg.BatchSize,
			Workers:   cfg.Workers,
		})
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(w, "serve-load self-hosted on %s (family=%s L=%d shards=%d points=%d routing=%s)\n",
			base, famName, L, cfg.Shards, cfg.Points, orDefault(cfg.Routing, "hash"))
		before = dsh.Metrics()
	} else if len(base) >= 1 && base[0] == ':' {
		base = "http://127.0.0.1" + base
	} else if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Conns * 2,
		MaxIdleConnsPerHost: cfg.Conns * 2,
	}}
	hot := workload.SpherePoints(xrand.New(cfg.Seed+2), cfg.HotSet, cfg.Dim)

	perConn := cfg.Queries / cfg.Conns
	if perConn == 0 {
		perConn = 1
	}
	type connStats struct {
		reads, writes []time.Duration
		shed, errs    int
	}
	stats := make([]connStats, cfg.Conns)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	start := time.Now()
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(cfg.Seed + 100 + uint64(c))
			// Every cold vector is drawn fresh, so the result cache can
			// absorb only the hot set.
			coldRng := xrand.New(cfg.Seed + 200 + uint64(c))
			st := &stats[c]
			for i := 0; i < perConn; i++ {
				var path string
				var body any
				isWrite := float64(rng.Uint64()%1000)/1000 < cfg.WriteFrac
				if isWrite {
					path = "/v1/insert"
					key := rng.Uint64() % uint64(cfg.Points+1)
					v := vec.RandomUnit(coldRng, cfg.Dim)
					if cfg.Routing == "rr" {
						body = map[string]any{"vector": v}
					} else {
						body = map[string]any{"key": key, "vector": v}
					}
				} else {
					path = "/v1/query"
					var v []float64
					if float64(rng.Uint64()%1000)/1000 < cfg.HotFrac {
						v = hot[rng.Uint64()%uint64(len(hot))]
					} else {
						v = vec.RandomUnit(coldRng, cfg.Dim)
					}
					body = map[string]any{"vector": v}
				}
				buf, _ := json.Marshal(body)
				t0 := time.Now()
				resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					st.errs++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				switch {
				case resp.StatusCode == http.StatusTooManyRequests:
					st.shed++
				case resp.StatusCode != http.StatusOK:
					st.errs++
				case isWrite:
					st.writes = append(st.writes, d)
				default:
					st.reads = append(st.reads, d)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return fmt.Errorf("serve-load transport: %w", err)
	}

	var reads, writes []time.Duration
	shed, errs := 0, 0
	for i := range stats {
		reads = append(reads, stats[i].reads...)
		writes = append(writes, stats[i].writes...)
		shed += stats[i].shed
		errs += stats[i].errs
	}
	total := len(reads) + len(writes) + shed + errs
	fmt.Fprintf(w, "serve-load conns=%d ops=%d elapsed=%v qps=%.0f shed=%d errs=%d\n",
		cfg.Conns, total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), shed, errs)
	printLatency(w, "serve-read ", reads)
	printLatency(w, "serve-write", writes)

	if selfHosted {
		after := dsh.Metrics()
		delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
		flushes := delta("dsh_serve_batches_total")
		bh := after.Histograms["dsh_serve_batch_size"]
		bhBefore := before.Histograms["dsh_serve_batch_size"]
		var meanBatch float64
		if n := bh.Count - bhBefore.Count; n > 0 {
			meanBatch = float64(bh.Sum-bhBefore.Sum) / float64(n)
		}
		hits, misses, stale := delta("dsh_serve_cache_hits_total"),
			delta("dsh_serve_cache_misses_total"), delta("dsh_serve_cache_stale_total")
		// Over every lookup, stale discards included: the same base as
		// the ledger's serve.cache_hit_ratio.
		var hitRate float64
		if lookups := hits + misses + stale; lookups > 0 {
			hitRate = float64(hits) / float64(lookups)
		}
		fmt.Fprintf(w, "serve-batch flushes=%d coalesced=%d mean-size=%.2f\n",
			flushes, delta("dsh_serve_coalesced_batches_total"), meanBatch)
		fmt.Fprintf(w, "serve-cache hits=%d misses=%d stale=%d hit-rate=%.3f\n",
			hits, misses, stale, hitRate)
	}
	return nil
}

// printLatency emits sorted-percentile client latencies for one op class.
func printLatency(w io.Writer, label string, ds []time.Duration) {
	if len(ds) == 0 {
		fmt.Fprintf(w, "%s n=0\n", label)
		return
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pct := func(q float64) time.Duration {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	fmt.Fprintf(w, "%s n=%d p50=%v p99=%v p99.9=%v max=%v\n",
		label, len(ds), pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond),
		pct(0.999).Round(time.Microsecond), ds[len(ds)-1].Round(time.Microsecond))
}
