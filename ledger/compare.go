package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// values collects one metric of one workload across a ledger's runs,
// traced or untraced.
func values(lf ledgerFile, workload, metric string, traced bool) []float64 {
	var out []float64
	for _, rec := range lf.Runs {
		if rec.Workload != workload || rec.Trace != traced {
			continue
		}
		if m, ok := rec.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartiles as a
// share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// minRuns is the fewest runs per side a verdict other than unresolved
// needs.
const minRuns = 3

// verdict judges new against old for one metric: worse when the new
// median is worse by more than the bound; better when it is better by
// more than the old runs' own spread; unresolved when either side's
// spread exceeds the bound (unless every new run beats every old run) or
// a side has fewer than minRuns runs; within bound otherwise.
//
// A bound covers a metric on every workload, so it is set by the noisiest
// one: setup_s needs 0.25 for the CPU-bound ingest of cold-read while
// hot-read's set-up is a tenth as long. A within-bound
// worsening of more than three times both sides' spread is therefore
// marked "within bound, beyond spread": not a regression by the bound,
// but not noise either.
func verdict(old, new []float64, better string, bound float64) string {
	worse := relChange(old, new) // positive: the median rose
	if better == "higher" {
		worse = -worse
	}
	if len(old) < minRuns || len(new) < minRuns {
		return "unresolved"
	}
	if spread(old) > bound || spread(new) > bound {
		if allBetter(old, new, better) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case -worse > spread(old):
		return "better"
	case worse > 3*max(spread(old), spread(new)):
		return "within bound, beyond spread"
	}
	return "within bound"
}

// relChange is the change of the median from old to new as a share of
// the old median.
func relChange(old, new []float64) float64 {
	om := median(old)
	if om == 0 {
		return 0
	}
	return (median(new) - om) / math.Abs(om)
}

// allBetter reports whether every new value beats every old one.
func allBetter(old, new []float64, better string) bool {
	for _, o := range old {
		for _, n := range new {
			if (better == "lower" && n >= o) || (better == "higher" && n <= o) {
				return false
			}
		}
	}
	return true
}

// compare prints every workload x end-to-end metric of two ledger files
// with both medians, the change and a verdict under BENCHMARK.json's
// bounds, from untraced runs. Where the new file also holds traced runs
// of a workload it prints their read_p50_ms difference, the tracing
// overhead.
func compare(w io.Writer, bf *benchmarkFile, old, new ledgerFile) {
	fmt.Fprintf(w, "%-14s %-22s %12s %12s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			ov, nv := values(old, wl.Name, m.Name, false), values(new, wl.Name, m.Name, false)
			if len(ov) == 0 && len(nv) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-22s %12.4g %12.4g %+7.1f%%  %s (runs %d/%d, spread %.1f%%/%.1f%%, bound %.0f%%)\n",
				wl.Name, m.Name, median(ov), median(nv), 100*relChange(ov, nv), verdict(ov, nv, m.Better, m.Bound),
				len(ov), len(nv), 100*spread(ov), 100*spread(nv), 100*m.Bound)
		}
		traced, plain := values(new, wl.Name, "read_p50_ms", true), values(new, wl.Name, "read_p50_ms", false)
		if len(traced) > 0 && len(plain) > 0 {
			fmt.Fprintf(w, "%-14s tracing overhead: read_p50_ms %+.4f ms (traced %d runs, untraced %d)\n",
				wl.Name, median(traced)-median(plain), len(traced), len(plain))
		}
	}
}
