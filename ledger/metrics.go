package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef names one metric of the ledger. The two tables below are the
// program's copy of the metric lists in BENCHMARK.json (which adds the
// regression bounds); TestMetricTablesMatchBenchmarkJSON keeps them equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of dshserve sees. Every workload
// reports every one of them; BENCHMARK.md gives each workload's reading.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"server_rss_mb", "MB", "lower"},
}

// perLayer are the single-layer metrics, named <layer>.<metric> after the
// repository's packages (serve, index, sphere, durable) plus the client.
var perLayer = []metricDef{
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.batch_size", "queries", "higher"},
	{"serve.request_us", "us", "lower"},
	{"serve.cpu_us_per_op", "us", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.snapshot_refreshes_per_kq", "1/kq", "lower"},
	{"serve.cache_stale_per_kq", "1/kq", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.timeouts", "count", "lower"},
	{"serve.restart_s", "s", "lower"},
	{"client.read_tail_ms", "ms", "lower"},
	{"client.write_p50_ms", "ms", "lower"},
	{"client.write_tail_ms", "ms", "lower"},
	{"client.transport_us", "us", "lower"},
	{"client.request_bytes", "B", "lower"},
	{"client.response_bytes", "B", "lower"},
	{"client.gen_lag_p99_ms", "ms", "lower"},
	{"index.query_us", "us", "lower"},
	{"index.probes_per_query", "count", "lower"},
	{"index.candidates_per_query", "count", "lower"},
	{"index.distinct_per_query", "count", "lower"},
	{"index.cpf_candidates_per_query", "count", "lower"},
	{"index.candidate_ratio", "ratio", "lower"},
	{"index.recall", "ratio", "higher"},
	{"index.snapshot_us", "us", "lower"},
	{"index.insert_us", "us", "lower"},
	{"index.detaches", "count", "lower"},
	{"index.compactions", "count", "lower"},
	{"sphere.hash_us_per_query", "us", "lower"},
	{"sphere.hash_evals_per_query", "count", "lower"},
	{"sphere.hash_share", "ratio", "lower"},
	{"durable.fsyncs_per_write", "count", "lower"},
	{"durable.wal_bytes_per_write", "B", "lower"},
	{"durable.append_sync_us", "us", "lower"},
	{"durable.recover_manifest_ms", "ms", "lower"},
	{"durable.recover_segments_ms", "ms", "lower"},
	{"durable.recover_replay_ms", "ms", "lower"},
	{"durable.faults", "count", "lower"},
}

// unitOf returns the declared unit of a metric; an undeclared name is a
// bug in this program.
func unitOf(name string) string {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("ledger: undeclared metric " + name)
}

// metricValue is one measured metric. N is the number of samples behind
// the value (requests, queries, ...); P is the percentile of a tail.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	P     float64 `json:"p,omitempty"`
}

// record is everything one run of one workload measured. It is the unit
// of the -json ledger file.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Env       environment            `json:"env"`
}

func (r *record) set(name string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name), N: n}
}

// fail records a correctness failure: the run still reports, but with
// correct=false and a non-zero exit.
func (r *record) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// result is the contract line printed last on standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]plainValue `json:"metrics"`
}

// plainValue is a metric on the contract line, which carries no sample
// count.
type plainValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine selects the metrics of one table: end-to-end without
// tracing, per-layer with it.
func (r *record) resultLine() result {
	tab := endToEnd
	if r.Trace {
		tab = perLayer
	}
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]plainValue{}}
	for _, d := range tab {
		if m, ok := r.Metrics[d.Name]; ok {
			out.Metrics[d.Name] = plainValue{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// environment identifies the machine a record was measured on.
type environment struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
}

func currentEnvironment() environment {
	env := environment{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// ledgerFile is the -json output: every run appended in order.
type ledgerFile struct {
	Runs []record `json:"runs"`
}

func readLedger(path string) (ledgerFile, error) {
	var lf ledgerFile
	b, err := os.ReadFile(path)
	if err != nil {
		return lf, err
	}
	if err := json.Unmarshal(b, &lf); err != nil {
		return lf, fmt.Errorf("%s: %w", path, err)
	}
	return lf, nil
}

// appendLedger adds recs to the ledger file at path, creating it if
// needed. The file is replaced atomically so an interrupted run never
// leaves it half written.
func appendLedger(path string, recs ...record) error {
	lf, err := readLedger(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	lf.Runs = append(lf.Runs, recs...)
	b, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
