package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"github.com/brb-repro/brb/internal/loadgen"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables the
// program reports from: same workloads, same metrics, units and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the program's %v", kind, d.name, d.bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

// TestHeadlinePairSharesSchedule: the same seed must give headline and
// headline-fifo byte-identical op schedules, or the pair compares
// traffic, not scheduling.
func TestHeadlinePairSharesSchedule(t *testing.T) {
	var encoded [2][]byte
	for i, name := range []string{"headline", "headline-fifo"} {
		ops, err := loadgen.Generate(workloadByName(name).spec(7, 1, 4))
		if err != nil {
			t.Fatal(err)
		}
		if encoded[i], err = json.Marshal(ops); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Fatal("headline and headline-fifo generated different schedules from one seed")
	}
}

// TestSmokeAllWorkloads runs a short measured and a short traced phase
// of every workload and checks what the benchmark promises about its
// output: every metric named in BENCHMARK.json emitted, finite and
// well-named, nothing failed, spans nested.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns five clusters")
	}
	f := readBenchmarkFile(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	quantum := measureQuantum()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.6, trace: traced, handles: 2, quantumMs: quantum, outDir: t.TempDir()}
			res, err := runWorkload(context.Background(), w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() || res.Attempted == 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d", w.name, traced, res.Attempted, res.Failed)
			}
			if !res.Valid {
				t.Logf("%s traced=%v: invalid as a measurement (a loaded test host): %v", w.name, traced, res.Invalid)
			}
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !nameOK.MatchString(m.Name):
					t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", m.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != m.Unit:
					t.Errorf("%s: metric %s = %v %s", w.name, m.Name, v.Value, v.Unit)
				case !traced && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, m.Name, v.Value)
				}
			}
			if traced {
				if v := res.Metrics["fail_frac"].Value; v != 0 {
					t.Errorf("%s: fail_frac = %v", w.name, v)
				}
				checkSpans(t, res.SpansFile)
			}
		}
	}
}

// checkSpans verifies that a spans file parses, holds the three root
// kinds, and that every child span lies inside its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	byID := map[uint64]span{}
	var spans []span
	sc := bufio.NewScanner(file)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots := map[string]int{}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Name]++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the file", path, s.ID, s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Trace != p.Trace {
			t.Errorf("%s: span %d (%s) [%d,%d] lies outside its parent %s [%d,%d]", path, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, name := range []string{"op", "probe", "layerprobe"} {
		if roots[name] == 0 {
			t.Errorf("%s: no %q root span", path, name)
		}
	}
}
