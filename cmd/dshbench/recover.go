package main

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/sphere"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// recoverConfig parameterizes the recovery benchmark: build a durable
// index from keyed upserts, delete every tenth key, garbage-collect, close
// — then race a cold start from the on-disk store against a full
// in-memory rebuild over the same live points. Recovery loads segments
// and key columns directly, so on a hash-heavy family it should win by a
// wide margin (the acceptance bar is 5x at 100k points).
type recoverConfig struct {
	Points  int
	Queries int
	Dim     int
	Seed    uint64
	Shards  int
	// Dir is the store directory; empty means a temp dir removed on exit.
	Dir string
}

func runRecover(w io.Writer, cfg recoverConfig) error {
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "dshbench-recover-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	// Same hash-heavy serving family as the churn mode: k=6 concatenated
	// SimHash draws per repetition, 32 repetitions — the regime where
	// construction cost is dominated by hash evaluations.
	fam := core.Power[[]float64](sphere.SimHash(cfg.Dim), 6)
	const L = 32
	dyn := index.DynamicOptions{
		MemtableThreshold: maxInt(cfg.Points/64, 128),
		Policy:            index.CompactLeveled,
	}
	sopts := index.ShardOptions{Shards: cfg.Shards, Routing: index.RouteHash, Dynamic: dyn}
	pts := workload.SpherePoints(xrand.New(cfg.Seed+2), cfg.Points, cfg.Dim)
	queries := workload.SpherePoints(xrand.New(cfg.Seed+3), maxInt(cfg.Queries, 8), cfg.Dim)
	fmt.Fprintf(w, "recover: points=%d dim=%d L=%d shards=%d dir=%s\n",
		cfg.Points, cfg.Dim, L, cfg.Shards, dir)

	// Build: upsert everything under its stream position as key, tombstone
	// every tenth key, fold the tombstones out through the leveled GC
	// merge, and seal. Close's final per-shard checkpoints write the
	// segment files and manifests that recovery will load.
	buildStart := time.Now()
	sx, err := index.NewDurableSharded[[]float64](dir, cfg.Seed, fam, L, durable.Float64Codec{},
		sopts, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		return err
	}
	for i, p := range pts {
		sx.InsertKeyed(uint64(i), p)
	}
	for k := 0; k < cfg.Points; k += 10 {
		sx.DeleteKeyed(uint64(k))
	}
	sx.Compact()
	buildTime := time.Since(buildStart)
	closeStart := time.Now()
	sx.Close()
	closeTime := time.Since(closeStart)
	if err := sx.DurableErr(); err != nil {
		return fmt.Errorf("build left a durable error: %w", err)
	}
	fmt.Fprintf(w, "build:   %12v  (keyed upserts+deletes+gc, live=%d)\n", buildTime, sx.Len())
	fmt.Fprintf(w, "close:   %12v  (final per-shard checkpoints)\n", closeTime)

	// Cold start: manifests + segment files + retained key columns, zero
	// hash evaluations, shards in parallel.
	recoverStart := time.Now()
	rx, err := index.OpenSharded[[]float64](dir, fam, durable.Float64Codec{}, dyn, durable.Options{})
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	recoverTime := time.Since(recoverStart)
	defer rx.Close()

	// Full rebuild: hash every live point back into a fresh index with the
	// same repetition draws — what a process without the durable tier
	// would have to do on every restart. The GC renumbered each shard's
	// survivors densely in insertion order, so the rebuild assigns the
	// recovered ids exactly.
	rebuildStart := time.Now()
	rebuilt := index.NewSharded[[]float64](xrand.New(cfg.Seed), fam, L, nil, sopts)
	for i, p := range pts {
		if i%10 != 0 {
			rebuilt.InsertKeyed(uint64(i), p)
		}
	}
	rebuildTime := time.Since(rebuildStart)
	defer rebuilt.Close()

	if rx.Len() != rebuilt.Len() {
		return fmt.Errorf("recovered %d live rows, rebuild has %d", rx.Len(), rebuilt.Len())
	}
	for qi, q := range queries[:8] {
		if !reflect.DeepEqual(rx.CollectDistinct(q, 0), rebuilt.CollectDistinct(q, 0)) {
			return fmt.Errorf("query %d: recovered candidate stream diverged from rebuild", qi)
		}
	}
	fmt.Fprintf(w, "recover: %12v  (cold start from disk, %d shard(s), 0 hash evaluations)\n", recoverTime, rx.Shards())
	fmt.Fprintf(w, "rebuild: %12v  (re-hash %d live points)\n", rebuildTime, rebuilt.Len())
	fmt.Fprintf(w, "recovery speedup: %.1fx\n", float64(rebuildTime)/float64(recoverTime))
	return nil
}
