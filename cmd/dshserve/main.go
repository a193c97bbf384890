// Command dshserve exposes a sharded DSH index over HTTP: keyed or
// round-robin mutations, single and batch queries with cross-connection
// coalescing, admission control with load shedding, and an
// epoch-invalidated hot-query cache. The metrics plane (/metrics,
// /debug/vars, /debug/pprof) rides on the same listener.
//
// Usage:
//
//	dshserve [-addr :8080] [-dim 24] [-points 20000] [-family simhash]
//	         [-routing hash|rr] [-dir STORE] [-batch 64] [-inflight 1024]
//	         [-queue N] [-shed N] [-cache 4096] [-timeout 2s]
//	         [-maxbatch 1024] [-workers N]
//
// The dispatcher flushes whatever queries are parked the moment it is
// free, so queries arriving during one flush are batched into the next;
// -batch caps how many one flush takes.
//
// With -dir the index is durable: an existing store is recovered
// (cold-start, zero hash evaluations), an empty directory is initialised
// and preloaded with -points synthetic sphere points. Without -dir the
// index is in-memory. SIGINT/SIGTERM triggers a graceful drain: the
// admission latch flips to 503, parked queries complete, then the
// listener and the index shut down.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/serve"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dim := flag.Int("dim", 24, "vector dimension")
	points := flag.Int("points", 20000, "synthetic sphere points preloaded into a fresh index")
	L := flag.Int("l", 0, "repetitions (0 = family default)")
	shards := flag.Int("shards", 4, "shard count")
	seed := flag.Uint64("seed", 7, "random seed for hash draws and preload data")
	family := flag.String("family", "simhash", "hash family (cp, fastcp, simhash or batchsimhash)")
	routing := flag.String("routing", "hash", "insert routing: hash (keyed upserts) or rr (dense round-robin ids)")
	dir := flag.String("dir", "", "durable store directory (empty = in-memory index)")
	batch := flag.Int("batch", 64, "most parked queries one dispatcher flush takes")
	inflight := flag.Int("inflight", 1024, "admission budget: max concurrent requests")
	queue := flag.Int("queue", 0, "intake queue depth (0 = 4x batch)")
	shed := flag.Int("shed", 0, "queue-depth shed watermark (0 = 3/4 of queue)")
	cache := flag.Int("cache", 4096, "hot-query cache entries (negative disables)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline")
	maxbatch := flag.Int("maxbatch", 1024, "max vectors per /v1/querybatch request")
	workers := flag.Int("workers", 0, "batch query workers (0 = GOMAXPROCS)")
	flag.Parse()

	fam, famL, err := workload.ServingFamily(*family, *dim)
	if err != nil {
		fatal(err)
	}
	if *L > 0 {
		famL = *L
	}
	route := index.RouteHash
	switch *routing {
	case "hash":
	case "rr":
		route = index.RouteRoundRobin
	default:
		fatal(fmt.Errorf("unknown -routing %q (want hash or rr)", *routing))
	}
	sopts := index.ShardOptions{Shards: *shards, Routing: route}

	var ix *index.ShardedIndex[[]float64]
	switch {
	case *dir == "":
		ix = index.NewSharded(xrand.New(*seed), fam, famL, nil, sopts)
		preload(ix, route, *seed, *points, *dim)
		log.Printf("in-memory index: %d points, %d shards, L=%d, family=%s", ix.Len(), *shards, famL, *family)
	case hasManifest(*dir):
		start := time.Now()
		ix, err = index.OpenSharded(*dir, fam, durable.Float64Codec{}, index.DynamicOptions{}, durable.Options{})
		if err != nil {
			fatal(fmt.Errorf("recover %s: %w", *dir, err))
		}
		log.Printf("recovered %s: %d points in %v", *dir, ix.Len(), time.Since(start).Round(time.Millisecond))
	default:
		ix, err = index.NewDurableSharded(*dir, *seed, fam, famL, durable.Float64Codec{}, sopts, durable.Options{})
		if err != nil {
			fatal(fmt.Errorf("create %s: %w", *dir, err))
		}
		preload(ix, route, *seed, *points, *dim)
		log.Printf("created %s: %d points, %d shards, L=%d, family=%s", *dir, ix.Len(), *shards, famL, *family)
	}

	srv := serve.New(ix, serve.Options{
		Dim:         *dim,
		BatchSize:   *batch,
		MaxInFlight: *inflight,
		QueueDepth:  *queue,
		ShedDepth:   *shed,
		CacheSize:   *cache,
		Timeout:     *timeout,
		MaxBatch:    *maxbatch,
		Workers:     *workers,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	go func() {
		<-ctx.Done()
		log.Print("signal: draining")
		dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer dcancel()
		if err := srv.Drain(dctx); err != nil {
			log.Printf("drain: %v", err)
		}
		if err := httpSrv.Shutdown(dctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("serving on %s", ln.Addr())
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	ix.Close()
	log.Print("drained")
}

// preload fills a fresh index with synthetic unit-sphere points: keyed
// 0..n-1 under hash routing, dense ids under round-robin.
func preload(ix *index.ShardedIndex[[]float64], route index.Routing, seed uint64, n, dim int) {
	for i, p := range workload.SpherePoints(xrand.New(seed+1), n, dim) {
		if route == index.RouteHash {
			ix.InsertKeyed(uint64(i), p)
		} else {
			ix.Insert(p)
		}
	}
}

// hasManifest reports whether dir already holds a durable index (so the
// server recovers it instead of initialising a fresh store).
func hasManifest(dir string) bool {
	if _, err := os.Stat(dir); err != nil {
		return false
	}
	ents, err := os.ReadDir(dir)
	return err == nil && len(ents) > 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dshserve:", err)
	os.Exit(1)
}
