// Command dshbench runs the experiment harness that reproduces every
// figure and quantitative theorem of "Distance-Sensitive Hashing"
// (PODS 2018). Each experiment prints a table of paper-predicted versus
// measured values.
//
// Usage:
//
//	dshbench [-trials N] [-seed S] [-csv] [experiment...]
//
// Experiments: fig1 fig2 fig3 fig4 filter-cpf crosspolytope lowerbound
// antibit euclid-rho polycpf annulus rangereport privacy combinators all
// (default: all).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"dsh/internal/experiments"
	"dsh/obshttp"
)

var registry = map[string]func(experiments.Config) *experiments.Table{
	"fig1":          experiments.Figure1,
	"fig2":          experiments.Figure2,
	"fig3":          experiments.Figure3,
	"fig4":          experiments.Figure4,
	"filter-cpf":    experiments.FilterCPF,
	"crosspolytope": experiments.CrossPolytopeExp,
	"lowerbound":    experiments.LowerBound,
	"antibit":       experiments.AntiBit,
	"euclid-rho":    experiments.EuclidRho,
	"polycpf":       experiments.PolyCPF,
	"annulus":       experiments.AnnulusSearch,
	"rangereport":   experiments.RangeReport,
	"privacy":       experiments.Privacy,
	"combinators":   experiments.Combinators,
	"join":          experiments.AnnulusJoin,
	"cpfdesign":     experiments.CPFDesign,
	"taylor":        experiments.TaylorCPF,
	"hyperplane":    experiments.HyperplaneQueries,
	"kernel":        experiments.KernelSpaces,
}

func names() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	trials := flag.Int("trials", 20000, "Monte-Carlo samples per probed point")
	seed := flag.Uint64("seed", 7, "random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	throughput := flag.Bool("throughput", false, "run the serving-throughput mode instead of experiments")
	churn := flag.Bool("churn", false, "run the dynamic-index churn mode (interleaved inserts/deletes/queries, QPS before/after compaction)")
	recoverMode := flag.Bool("recover", false, "run the durable-recovery mode (cold start from an on-disk store vs a full in-memory rebuild)")
	dir := flag.String("dir", "", "recover: store directory (default: a temp dir removed on exit)")
	points := flag.Int("points", 20000, "throughput/churn: indexed points")
	queries := flag.Int("queries", 2000, "throughput/churn: total queries")
	batch := flag.Int("batch", 256, "throughput/churn: queries per batch")
	workers := flag.Int("workers", 0, "throughput/churn: batch workers (0 = GOMAXPROCS)")
	dim := flag.Int("dim", 24, "throughput/churn: dimension")
	family := flag.String("family", "", "throughput/churn/serve: serving hash family (fastcp or simhash; default: the annulus family in -throughput, simhash in -churn and -serve)")
	policy := flag.String("policy", "all", "churn: background compaction policy (all or leveled)")
	shards := flag.Int("shards", 1, "churn, recover: ShardedIndex shard count (churn: >1 runs the multi-writer variant beside a one-shard baseline)")
	writers := flag.Int("writers", 1, "churn: concurrent insert/delete goroutines (multi-writer benchmark)")
	deletes := flag.Float64("deletes", 0.25, "churn: per-insert probability of a trailing delete")
	routing := flag.String("routing", "", "churn/serve: insert routing (rr = dense round-robin ids via Insert, hash = keyed upserts via InsertKeyed; default rr in -churn, hash in -serve, which must match the server's)")
	serveMode := flag.Bool("serve", false, "run the serving-edge load-generator mode (real HTTP connections, client-observed latency percentiles)")
	serveAddr := flag.String("serveaddr", "", "serve: target address of a running dshserve (empty = self-host on 127.0.0.1:0 and report in-process coalescing/cache metrics)")
	conns := flag.Int("conns", 16, "serve: concurrent client connections")
	writeFrac := flag.Float64("writefrac", 0.1, "serve: fraction of ops that are inserts")
	hotFrac := flag.Float64("hotfrac", 0.5, "serve: fraction of queries drawn from the hot set (cacheable working set)")
	hotSet := flag.Int("hotset", 64, "serve: distinct hot query vectors")
	metricsAddr := flag.String("metrics", "", "serve the metrics plane (Prometheus /metrics, /debug/vars, /debug/pprof) on this address for the duration of the run (e.g. :9100 or 127.0.0.1:0)")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics endpoint up this long after the run finishes (for scrapers that attach late)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dshbench [flags] [experiment...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s all\n", strings.Join(names(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *metricsAddr != "" {
		srv, addr, err := obshttp.Start(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: -metrics %s: %v\n", *metricsAddr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "dshbench: metrics plane on http://%s/ (/metrics, /debug/vars, /debug/pprof/)\n", addr)
		defer func() {
			if *metricsLinger > 0 {
				fmt.Fprintf(os.Stderr, "dshbench: metrics plane lingering %v\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}
			srv.Close()
		}()
	}

	if *throughput || *churn || *recoverMode || *serveMode {
		if *points <= 0 || *queries <= 0 || *batch <= 0 || *dim <= 0 {
			fmt.Fprintln(os.Stderr, "dshbench: -points, -queries, -batch and -dim must be positive")
			os.Exit(2)
		}
	}
	if *serveMode {
		err := runServeLoad(os.Stdout, serveLoadConfig{
			Points:    *points,
			Queries:   *queries,
			Dim:       *dim,
			Seed:      *seed,
			Shards:    max(*shards, 1),
			Family:    *family,
			Routing:   *routing,
			Addr:      *serveAddr,
			Conns:     *conns,
			WriteFrac: *writeFrac,
			HotFrac:   *hotFrac,
			HotSet:    *hotSet,
			BatchSize: *batch,
			Workers:   *workers,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *recoverMode {
		if *shards < 1 {
			fmt.Fprintln(os.Stderr, "dshbench: -shards must be positive")
			os.Exit(2)
		}
		err := runRecover(os.Stdout, recoverConfig{
			Points:  *points,
			Queries: *queries,
			Dim:     *dim,
			Seed:    *seed,
			Shards:  *shards,
			Dir:     *dir,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *churn {
		if *shards < 1 || *writers < 1 {
			fmt.Fprintln(os.Stderr, "dshbench: -shards and -writers must be positive")
			os.Exit(2)
		}
		if *deletes < 0 || *deletes > 1 {
			fmt.Fprintln(os.Stderr, "dshbench: -deletes must be in [0, 1]")
			os.Exit(2)
		}
		err := runChurn(os.Stdout, churnConfig{
			Points:    *points,
			Queries:   *queries,
			BatchSize: *batch,
			Workers:   *workers,
			Dim:       *dim,
			Seed:      *seed,
			Policy:    *policy,
			Shards:    *shards,
			Writers:   *writers,
			Deletes:   *deletes,
			Routing:   *routing,
			Family:    *family,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(2)
		}
		return
	}
	if *throughput {
		err := runThroughput(os.Stdout, throughputConfig{
			Points:    *points,
			Queries:   *queries,
			BatchSize: *batch,
			Workers:   *workers,
			Dim:       *dim,
			Seed:      *seed,
			Family:    *family,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dshbench: %v\n", err)
			os.Exit(2)
		}
		return
	}

	cfg := experiments.Config{Trials: *trials, Seed: *seed}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"all"}
	}
	var selected []string
	for _, a := range args {
		if a == "all" {
			selected = names()
			break
		}
		if _, ok := registry[a]; !ok {
			fmt.Fprintf(os.Stderr, "dshbench: unknown experiment %q\n", a)
			flag.Usage()
			os.Exit(2)
		}
		selected = append(selected, a)
	}
	for _, name := range selected {
		tbl := registry[name](cfg)
		if *csv {
			tbl.RenderCSV(os.Stdout)
		} else {
			tbl.Render(os.Stdout)
		}
	}
}
