package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// mainCode runs the command and returns its exit code: 0 on success, 1
// when a run finished with a correctness failure (its result line is
// still printed), 2 when a run could not complete (nothing printed).
func mainCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: hot-read, cold-read, mixed-durable or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: replay every layer, write the trace file, report the per-layer metrics")
	serverBin := fs.String("server", "", "dshserve binary to run (ledger/run.sh builds it from this tree)")
	work := fs.String("work", ".bench_build/ledger", "scratch directory for durable stores and trace files")
	jsonOut := fs.String("json", "", "append every run record to this ledger file")
	cmp := fs.Bool("compare", false, "compare two ledger files: -compare old.json new.json")
	bench := fs.String("benchmark", "BENCHMARK.json", "BENCHMARK.json whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "ledger: -compare needs two ledger files: old.json new.json")
			return 2
		}
		if err := runCompare(stdout, *bench, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 2
		}
		return 0
	}

	var specs []spec
	if *name == "all" {
		specs = workloads
	} else {
		sp, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 2
		}
		specs = []spec{sp}
	}
	if *serverBin == "" {
		fmt.Fprintln(stderr, "ledger: -server is required (run through ledger/run.sh, which builds dshserve)")
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "ledger: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "ledger: -seconds must be positive")
		return 2
	}
	cfg := config{server: *serverBin, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1, log: stderr}

	code := 0
	for _, sp := range specs {
		rec, err := runWorkload(cfg, sp)
		if err != nil {
			fmt.Fprintln(stderr, "ledger:", err)
			return 2
		}
		if *jsonOut != "" {
			if err := appendLedger(*jsonOut, *rec); err != nil {
				fmt.Fprintln(stderr, "ledger:", err)
				return 2
			}
		}
		printRecord(stdout, rec)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// printRecord prints every measured metric with its unit and sample
// count, then the contract line.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := rec.Metrics[k]
		at := ""
		if m.P != 0 {
			at = fmt.Sprintf(" at p%g", m.P)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-10s n=%d%s\n", k, m.Value, m.Unit, m.N, at)
	}
	b, err := json.Marshal(rec.resultLine())
	if err != nil {
		panic(err) // plain numbers, strings and maps always marshal
	}
	fmt.Fprintln(w, string(b))
}

func runCompare(w io.Writer, benchPath, oldPath, newPath string) error {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	old, err := readLedger(oldPath)
	if err != nil {
		return err
	}
	new, err := readLedger(newPath)
	if err != nil {
		return err
	}
	if len(old.Runs) == 0 || len(new.Runs) == 0 {
		return errors.New("compare: a ledger file holds no runs")
	}
	compare(w, bf, old, new)
	return nil
}
