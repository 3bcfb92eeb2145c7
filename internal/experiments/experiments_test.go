package experiments

import (
	"strings"
	"testing"

	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/sim"
)

func quickConfig() engine.Config {
	cfg := engine.Defaults()
	cfg.Tasks = 4000
	cfg.Keys = 5000
	return cfg
}

func TestFigure1(t *testing.T) {
	res := Figure1()
	if !res.Matches() {
		t.Fatalf("Figure 1 reconstruction does not match the paper:\n%s", res.String())
	}
	// The oblivious S1 must serve A before E; the optimal S1 serves E
	// before A.
	if !strings.Contains(res.ObliviousOrder, "S1:[A E]") {
		t.Fatalf("oblivious order wrong: %s", res.ObliviousOrder)
	}
	if !strings.Contains(res.OptimalOrder, "S1:[E A]") {
		t.Fatalf("optimal order wrong: %s", res.OptimalOrder)
	}
}

func TestFigure2Strategies(t *testing.T) {
	m := Figure2Strategies()
	if len(m) != 5 {
		t.Fatalf("expected 5 strategies, got %d", len(m))
	}
	for _, name := range Figure2Order {
		f, ok := m[name]
		if !ok {
			t.Fatalf("missing strategy %q", name)
		}
		if got := f().Name(); got != name {
			t.Fatalf("factory %q builds strategy named %q", name, got)
		}
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	set, results, err := RunSeeds(quickConfig(), Figure2Strategies()["EqualMax-Credits"], []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 || len(results) != 2 {
		t.Fatalf("got %d seeds, %d results", set.Len(), len(results))
	}
	if results[0].TaskLatency == results[1].TaskLatency {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestDefaultSeeds(t *testing.T) {
	s := DefaultSeeds(6)
	if len(s) != 6 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seed")
		}
		seen[v] = true
	}
}

func TestFigure2SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("figure2 comparison is long")
	}
	cfg := quickConfig()
	cfg.Tasks = 15000
	tbl, err := Figure2(cfg, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	rows := map[string]metrics.Row{}
	for _, r := range tbl.Rows {
		rows[r.Label] = r
	}
	// Paper-shape assertions (loose — short runs are noisy):
	// C3 must be the worst at the median, models must be best per
	// assigner.
	for _, a := range []string{"EqualMax", "UnifIncr"} {
		if rows[a+"-Model"].MedianMS > rows[a+"-Credits"].MedianMS*1.15 {
			t.Errorf("%s: model median %.3f worse than credits %.3f",
				a, rows[a+"-Model"].MedianMS, rows[a+"-Credits"].MedianMS)
		}
	}
	if rows["C3"].MedianMS < 1.5*rows["EqualMax-Credits"].MedianMS {
		t.Errorf("C3 median %.3f not clearly above EqualMax-Credits %.3f",
			rows["C3"].MedianMS, rows["EqualMax-Credits"].MedianMS)
	}
	cl := Claims(tbl)
	if cl.C3OverBestCreditsMedian <= 1 {
		t.Errorf("claims: C3/credits median ratio %.2f <= 1", cl.C3OverBestCreditsMedian)
	}
	if cl.CreditsOverModelP99 <= 0 {
		t.Errorf("claims: credits/model p99 ratio missing")
	}
	if !strings.Contains(cl.String(), "paper") {
		t.Errorf("claims string malformed: %s", cl.String())
	}
}

func TestTraceStats(t *testing.T) {
	st, err := TraceStats(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 4000 || st.Requests == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MeanFanout < 7 || st.MeanFanout > 10.5 {
		t.Fatalf("mean fanout = %v, want ~8.6", st.MeanFanout)
	}
}

// TestTraceStatsPartitions: TraceStats describes the trace engine.Run
// simulates, so it builds the same topology — Partitions included.
func TestTraceStatsPartitions(t *testing.T) {
	cfg := quickConfig()
	cfg.Partitions = 27
	st, err := TraceStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Groups != 27 {
		t.Fatalf("trace spans %d replica groups, want 27", st.Groups)
	}
}

func TestIntervalSweepSmall(t *testing.T) {
	cfg := quickConfig()
	tbl, err := IntervalSweep(cfg, []uint64{1}, []sim.Time{sim.Second, 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestVariantsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("variants comparison is long")
	}
	cfg := quickConfig()
	tbl, err := Variants(cfg, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(tbl.Rows))
	}
}

func TestSortedNames(t *testing.T) {
	names := SortedNames(Figure2Strategies())
	if len(names) != 5 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
