package c3_test

import (
	"testing"

	"github.com/brb-repro/brb/internal/baseline"
	"github.com/brb-repro/brb/internal/engine"
)

// The simulator's C3 strategy is baseline.C3: it needs engine, which
// imports loadgen and so the networked client this package serves. These
// tests drive it end to end through engine.Run; the ones that inspect its
// state are in baseline.

func smallConfig() engine.Config {
	cfg := engine.Defaults()
	cfg.Tasks = 3000
	cfg.Keys = 5000
	return cfg
}

func TestRunCompletes(t *testing.T) {
	s := baseline.NewC3(baseline.C3Options{})
	res, err := engine.Run(smallConfig(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskLatency.Count == 0 {
		t.Fatal("no tasks measured")
	}
	if res.Strategy != "C3" {
		t.Fatalf("name = %q", res.Strategy)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := engine.Run(smallConfig(), baseline.NewC3(baseline.C3Options{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Run(smallConfig(), baseline.NewC3(baseline.C3Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskLatency != b.TaskLatency {
		t.Fatal("C3 runs diverged across identical seeds")
	}
}

func TestSelectionAvoidsLoadedReplica(t *testing.T) {
	// Under steady load, C3 must distribute across replicas rather than
	// herding onto one. Check server utilization spread.
	cfg := smallConfig()
	cfg.Tasks = 20000
	s := baseline.NewC3(baseline.C3Options{})
	res, err := engine.Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanUtilization < 0.5 {
		t.Fatalf("utilization %v too low — selection is broken", res.MeanUtilization)
	}
	// A herding selector would drive MaxServerQueue enormous.
	if res.MaxServerQueue > 2000 {
		t.Fatalf("max queue %d suggests herding", res.MaxServerQueue)
	}
}

func TestRateControlDefersUnderOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.Tasks = 20000
	cfg.Load = 1.05 // transient overload forces rate limiting
	s := baseline.NewC3(baseline.C3Options{SMax: 40})
	if _, err := engine.Run(cfg, s); err != nil {
		t.Fatal(err)
	}
	if s.Defers() == 0 {
		t.Fatal("rate control never engaged under overload")
	}
}
