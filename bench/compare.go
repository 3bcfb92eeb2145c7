package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// valuesOf collects a metric's values over a file's untraced runs of
// one workload, and whether any of those runs was incorrect or invalid.
func valuesOf(r *results, workload, metric string) (vs []float64, incorrect bool) {
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Workload != workload || run.Trace {
			continue
		}
		if v, ok := run.Metrics[metric]; ok {
			vs = append(vs, v.Value)
		}
		incorrect = incorrect || !run.trusted()
	}
	return vs, incorrect
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both files' medians, b's change relative to a, the metric's bound and
// a verdict: regressed when b is worse than a by more than the bound,
// unresolved when either side's run-to-run spread (quartile distance
// over median) is wider than the bound or cannot be told because a
// side has a single run, incorrect when a compared run failed a check
// or was invalid, ok otherwise. It reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-16s %12s %12s %8s %6s %8s %8s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "spread_a", "spread_b", "verdict")
	allOK := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, badA := valuesOf(a, wl.name, d.name)
			vb, badB := valuesOf(b, wl.name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			delta := ratio(mb-ma, ma)
			worse := delta
			if d.better == "higher" {
				worse = -delta
			}
			sa, sb := iqrSpread(va), iqrSpread(vb)
			verdict := "ok"
			switch {
			case badA || badB:
				verdict = "incorrect"
			case worse > d.bound:
				verdict = "regressed"
			case len(va) < 2 || len(vb) < 2 || sa > d.bound || sb > d.bound:
				verdict = "unresolved"
			}
			allOK = allOK && verdict == "ok"
			fmt.Fprintf(w, "%-14s %-16s %12.4f %12.4f %+7.1f%% %5.0f%% %8s %8s  %s\n",
				wl.name, d.name, ma, mb, 100*delta, 100*d.bound, spreadText(va), spreadText(vb), verdict)
		}
	}
	return allOK, nil
}

// spreadText prints a side's run-to-run spread, or "-" for a single
// run, which has none.
func spreadText(vs []float64) string {
	if len(vs) < 2 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*iqrSpread(vs))
}
