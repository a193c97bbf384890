// Command ledger is the serving benchmark of record: three wire-level
// workloads driven against a separately built and separately running
// cmd/dshserve, with end-to-end metrics measured from the client and a
// per-layer breakdown measured from outside the server.
//
// Usage (from the repository root):
//
//	bash ledger/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
//	bash ledger/run.sh --workload all --seed 1 --seconds 10 -json out.json
//	bash ledger/run.sh -compare old.json new.json
//
// run.sh builds this program and cmd/dshserve from the same tree into
// .bench_build (or $CARGO_TARGET_DIR) and passes the dshserve binary with
// -server. Each run:
//
//  1. generates every input from -seed: the preload points (exactly the
//     points dshserve's own -points preload makes from the same seed), the
//     hot set, the timed schedule and a 256-query probe set, all encoded
//     before any timing starts;
//  2. sets up three times: exec dshserve with -points 0, load the points
//     through /v1/insert pipelined on one connection, stop; setup_s is the
//     median. The third server stays up;
//  3. warms up, then drives the timed phase for -seconds: an open-loop
//     schedule over at most two connections, each request timed from its
//     due time, less the generator's own lateness;
//  4. answers the probe set, restarts the server (SIGTERM drain, exec,
//     healthy), requires identical probe answers after the restart and
//     stops the server;
//  5. builds an in-process replica with the construction dshserve uses and
//     checks the wire results: sampled answers equal the replica's
//     QueryBatch output (read-only workloads), every returned id was
//     acknowledged by an insert (mixed-durable), and no durable fault
//     latched;
//  6. with -trace 1, replays the run's queries and writes against the
//     replica and scratch durable stores, timing calls into the public
//     functions of each layer (index, sphere, durable), and writes every
//     span to a trace file.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The process exits 1 on a
// correctness failure and 2 when a run cannot complete. -json appends the
// full run record (every metric with unit and sample count, plus the
// machine) to a ledger file; -compare prints two such files side by side
// against the bounds in BENCHMARK.json. BENCHMARK.md documents every
// workload and metric.
package main
