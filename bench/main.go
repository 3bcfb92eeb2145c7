// Command bench is the repository's benchmark: five named workloads
// against in-process clusters of the real store, end-to-end metrics
// with tracing off, per-layer metrics and spans with tracing on.
//
//	bash bench/run.sh                       all five, measured then traced
//	bash bench/run.sh -workload saturate    one workload
//	bash bench/run.sh -compare a.json b.json
//
// The benchmark driver's form runs one phase of one workload and ends
// with one JSON line:
//
//	bash bench/run.sh --workload headline --seed 7 --seconds 20 --trace 0
//
// See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// results is the schema of results.json: where the runs were taken
// and every run made, in order.
type results struct {
	Schema int         `json:"schema"`
	Env    environment `json:"env"`
	Runs   []runResult `json:"runs"`
}

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same schedules and value sizes")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", -1, "0: measured phase only (end-to-end metrics); 1: traced phase only, for -seconds (per-layer metrics, spans); default: measured, then traced for 8 s")
	runs := flag.Int("runs", 1, "repeat everything with seeds seed … seed+runs-1 (run-to-run spread for -compare)")
	outDir := flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.json, spans files and durable data")
	compare := flag.Bool("compare", false, "compare two results.json files (arguments: a.json b.json) instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "-compare wants two results files: a.json b.json")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err.Error())
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments: "+strings.Join(flag.Args(), " "))
	}
	selected := workloads
	if *workloadFlag != "" {
		w := workloadByName(*workloadFlag)
		if w == nil {
			fatal(2, fmt.Sprintf("unknown workload %q", *workloadFlag))
		}
		selected = []*workload{w}
	}
	if *seconds <= 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		fatal(2, "-seconds must be positive, -runs at least 1, -trace one of 0, 1")
	}

	// One process sized by the host: GOMAXPROCS and the handle count H
	// follow nproc up to 4.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	quantum := measureQuantum()
	out := results{Schema: 1, Env: describeEnvironment(procs, quantum, *outDir)}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d H=%d %s timer_quantum=%.3fms wal_fs=%s commit=%s\n",
		out.Env.NProc, procs, procs, out.Env.GoVersion, quantum, out.Env.WALFS, out.Env.GitCommit)

	ctx := context.Background()
	allTrusted := true
	for r := 0; r < *runs; r++ {
		for _, w := range selected {
			for _, traced := range []bool{false, true} {
				if *trace >= 0 && traced != (*trace == 1) {
					continue
				}
				cfg := runConfig{seed: *seed + uint64(r), seconds: *seconds, trace: traced, handles: procs, quantumMs: quantum, outDir: *outDir}
				if traced && *trace < 0 {
					cfg.seconds = traceSeconds
				}
				res, err := runWorkload(ctx, w, cfg)
				if err != nil {
					fatal(1, fmt.Sprintf("%s: %v", w.name, err))
				}
				printRun(res)
				allTrusted = allTrusted && res.trusted()
				out.Runs = append(out.Runs, *res)
			}
		}
	}
	if err := writeJSON(filepath.Join(*outDir, "results.json"), &out); err != nil {
		fatal(1, err.Error())
	}
	if len(out.Runs) == 1 {
		// The driver's form: one phase of one workload, one JSON line
		// last. Its `correct` and the exit code say what the driver's
		// contract has them say, whether every output checked was
		// correct. Whether the run is valid as a measurement is in the
		// lines above and in results.json: on the development host one
		// run in a hundred is disturbed enough to trip the lateness guard,
		// and the driver wants exit 0 from every run of a correct store.
		r := &out.Runs[0]
		type driverValue struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]driverValue `json:"metrics"`
		}{r.correct(), r.Attempted, r.Failed, map[string]driverValue{}}
		for name, v := range r.Metrics {
			line.Metrics[name] = driverValue{v.Value, v.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal(1, err.Error())
		}
		fmt.Println(string(b))
		if !r.correct() {
			os.Exit(1)
		}
		return
	}
	if !allTrusted {
		os.Exit(1)
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

// printRun prints one line per metric: workload, metric, value, unit,
// sample count.
func printRun(r *runResult) {
	phase := "measured"
	defs := endToEnd
	if r.Trace {
		phase, defs = "traced", perLayer
	}
	fmt.Printf("## %s seed=%d %s %.0fs attempted=%d failed=%d valid=%v\n", r.Workload, r.Seed, phase, r.Seconds, r.Attempted, r.Failed, r.Valid)
	for _, why := range r.Invalid {
		fmt.Printf("   INVALID: %s\n", why)
	}
	for _, d := range defs {
		v := r.Metrics[d.name]
		fmt.Printf("%-14s %-38s %14.4f %-7s n=%d\n", r.Workload, d.name, v.Value, v.Unit, v.N)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
