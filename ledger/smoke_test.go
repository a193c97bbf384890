package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end against a real
// dshserve built from this tree, at a tiny size and for half a second,
// traced so that both metric tables are measured. Every declared metric
// must be present with its declared unit, every check must pass and no
// request may fail.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dshserve")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dshserve")
	build := exec.Command("go", "build", "-o", bin, "dsh/cmd/dshserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dshserve: %v\n%s", err, out)
	}
	for _, sp := range workloads {
		t.Run(sp.name, func(t *testing.T) {
			cfg := config{server: bin, work: filepath.Join(dir, "work"), seed: 7, seconds: 0.5, trace: true, log: io.Discard}
			if testing.Verbose() {
				cfg.log = os.Stderr
			}
			rec, err := runWorkload(cfg, tiny(sp))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct {
				t.Errorf("incorrect: %v", rec.Problems)
			}
			if rec.Attempted == 0 || rec.Failed != 0 {
				t.Errorf("attempted %d, failed %d: fail_frac must be 0", rec.Attempted, rec.Failed)
			}
			for _, tab := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range tab {
					m, ok := rec.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not reported", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s in %q, declared %q", d.Name, m.Unit, d.Unit)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.work, "trace-"+sp.name+".json")); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// tiny shrinks a workload's preload and hot set fifty-fold (to no fewer
// than 64 vectors); rates and the traffic mix are unchanged.
func tiny(sp spec) spec {
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/50, 64)
	}
	sp.points = shrink(sp.points)
	sp.hotSet = shrink(sp.hotSet)
	return sp
}
