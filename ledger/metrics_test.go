package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The program's metric tables and BENCHMARK.json must declare the same
// metrics with the same units and directions, in the same order, and the
// workload lists must agree.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\nprogram        %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\nprogram        %v", bf.PerLayer, perLayer)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range workloads {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	a := record{Workload: "hot-read", Seed: 1, Seconds: 12, Correct: true, Attempted: 10,
		Metrics: map[string]metricValue{"read_p50_ms": {Value: 1.2345678901234567, Unit: "ms", N: 10}},
		Env:     currentEnvironment()}
	b := a
	b.Seed, b.Trace, b.Correct, b.Failed = 2, true, false, 1
	b.Problems = []string{"probe 3: wire answer differs"}
	b.Metrics = map[string]metricValue{"index.recall": {Value: 0.5, Unit: "ratio", N: 256}}
	if err := appendLedger(path, a); err != nil {
		t.Fatal(err)
	}
	if err := appendLedger(path, b); err != nil {
		t.Fatal(err)
	}
	lf, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lf.Runs, []record{a, b}) {
		t.Errorf("round trip changed the records:\n got %+v\nwant %+v", lf.Runs, []record{a, b})
	}
}

// The contract line has exactly correct, attempted, failed and metrics,
// each metric exactly value and unit, from the table the trace flag
// selects, and it is the last line printed.
func TestResultLine(t *testing.T) {
	rec := &record{Workload: "hot-read", Correct: true, Attempted: 3, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		rec.set(d.Name, 1.5, 7)
	}
	for _, d := range perLayer {
		rec.set(d.Name, 2.5, 7)
	}
	for _, traced := range []bool{false, true} {
		rec.Trace = traced
		var buf bytes.Buffer
		printRecord(&buf, rec)
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if got := sortedKeys(line); !reflect.DeepEqual(got, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("keys %v", got)
		}
		var ms map[string]map[string]any
		if err := json.Unmarshal(line["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		tab := endToEnd
		if traced {
			tab = perLayer
		}
		if len(ms) != len(tab) {
			t.Errorf("trace=%v: %d metrics, want %d", traced, len(ms), len(tab))
		}
		for _, d := range tab {
			m, ok := ms[d.Name]
			if !ok {
				t.Errorf("trace=%v: %s missing", traced, d.Name)
				continue
			}
			if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"unit", "value"}) {
				t.Errorf("%s has keys %v", d.Name, got)
			}
			if m["unit"] != d.Unit {
				t.Errorf("%s unit %v, want %s", d.Name, m["unit"], d.Unit)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestVerdict(t *testing.T) {
	old := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, c := range []struct {
		name   string
		new    []float64
		better string
		want   string
	}{
		{"same", []float64{10, 10.02, 9.98, 10.01, 10}, "lower", "within bound"},
		{"slower past the bound", []float64{12, 12.1, 11.9, 12, 12.05}, "lower", "worse"},
		{"slower within the bound", []float64{10.5, 10.6, 10.4, 10.5, 10.55}, "lower", "within bound, beyond spread"},
		{"slower within the bound and the spread", []float64{10.1, 10.3, 9.9, 10.1, 10.2}, "lower", "within bound"},
		{"faster", []float64{8, 8.1, 7.9, 8, 8.05}, "lower", "better"},
		{"higher is better", []float64{8, 8.1, 7.9, 8, 8.05}, "higher", "worse"},
		{"too few runs", []float64{8, 8.1}, "lower", "unresolved"},
		{"too noisy", []float64{5, 15, 8, 12, 10}, "lower", "unresolved"},
		{"noisy but every run better", []float64{1, 3, 2, 5, 9}, "lower", "better"},
	} {
		if got := verdict(old, c.new, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareOutput(t *testing.T) {
	bf, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v float64, traced bool) record {
		return record{Workload: "cold-read", Trace: traced, Metrics: map[string]metricValue{"read_p50_ms": {Value: v, Unit: "ms"}}}
	}
	old := ledgerFile{Runs: []record{mk(2, false), mk(2.02, false), mk(1.98, false)}}
	new := ledgerFile{Runs: []record{mk(2.6, false), mk(2.62, false), mk(2.58, false), mk(2.7, true)}}
	var buf bytes.Buffer
	compare(&buf, bf, old, new)
	out := buf.String()
	if !strings.Contains(out, "cold-read") || !strings.Contains(out, "read_p50_ms") || !strings.Contains(out, "worse") {
		t.Errorf("compare output lacks the cold-read read_p50_ms regression:\n%s", out)
	}
	if !strings.Contains(out, "tracing overhead: read_p50_ms +0.1000 ms") {
		t.Errorf("compare output lacks the tracing overhead:\n%s", out)
	}
}
