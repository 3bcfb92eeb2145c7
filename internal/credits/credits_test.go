package credits

import (
	"math"
	"testing"

	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/sim"
)

func smallConfig() engine.Config {
	cfg := engine.Defaults()
	cfg.Tasks = 3000
	cfg.Keys = 5000
	return cfg
}

func TestRunCompletes(t *testing.T) {
	s := New(core.EqualMax{}, Options{})
	res, err := engine.Run(smallConfig(), s)
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskLatency.Count == 0 {
		t.Fatal("no tasks measured")
	}
	if res.Strategy != "EqualMax-Credits" {
		t.Fatalf("name = %q", res.Strategy)
	}
}

func TestDeterministic(t *testing.T) {
	a, err := engine.Run(smallConfig(), New(core.UnifIncr{}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Run(smallConfig(), New(core.UnifIncr{}, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskLatency != b.TaskLatency {
		t.Fatal("credits runs diverged across identical seeds")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MeasureInterval != 25*sim.Millisecond {
		t.Fatalf("MeasureInterval = %v", o.MeasureInterval)
	}
	if o.AdaptInterval != sim.Second {
		t.Fatalf("AdaptInterval = %v (paper: 1s)", o.AdaptInterval)
	}
	if o.BurstIntervals != 2 {
		t.Fatalf("BurstIntervals = %v", o.BurstIntervals)
	}
}

func TestControllerProportionalAllocation(t *testing.T) {
	ct := NewController(2, 1, 4) // 2 clients, 1 server, 4 cores
	demand := [][]float64{{3000}, {1000}}
	for i := 0; i < 20; i++ { // converge the EWMA
		ct.Report(demand)
	}
	alloc := ct.AllocateInterval(1000) // capacity = 4000 service-ns
	total := alloc[0][0] + alloc[1][0]
	if math.Abs(total-4000) > 1 {
		t.Fatalf("allocations sum to %v, want server capacity 4000", total)
	}
	if alloc[0][0] <= alloc[1][0] {
		t.Fatalf("higher-demand client got %v <= %v", alloc[0][0], alloc[1][0])
	}
	// Blended (30% proportional): client 0 share = 0.7*2000 + 0.3*3000.
	want0 := 0.7*2000 + 0.3*4000*(3000.0/4000)
	if math.Abs(alloc[0][0]-want0)/want0 > 0.02 {
		t.Fatalf("alloc[0] = %v, want ~%v", alloc[0][0], want0)
	}
}

func TestControllerEqualSplitWithoutDemand(t *testing.T) {
	ct := NewController(3, 2, 4)
	alloc := ct.AllocateInterval(900) // capacity 3600 per server
	for s := 0; s < 2; s++ {
		for c := 0; c < 3; c++ {
			if math.Abs(alloc[c][s]-1200) > 1 {
				t.Fatalf("no-demand alloc[%d][%d] = %v, want equal 1200", c, s, alloc[c][s])
			}
		}
	}
}

func TestControllerCongestionSignal(t *testing.T) {
	ct := NewController(1, 1, 4)
	ct.Report([][]float64{{100}})
	ct.AllocateInterval(1000)
	if ct.Congested() {
		t.Fatal("congestion raised below capacity")
	}
	// Demand far above capacity (EWMA needs a couple of reports).
	for i := 0; i < 10; i++ {
		ct.Report([][]float64{{10000}})
	}
	ct.AllocateInterval(1000)
	if !ct.Congested() {
		t.Fatal("no congestion signal despite demand > capacity")
	}
	if !ct.TakeCongestionSignal() {
		t.Fatal("TakeCongestionSignal returned false")
	}
	if ct.Congested() {
		t.Fatal("latch not cleared")
	}
}

func TestControllerResetHistory(t *testing.T) {
	ct := NewController(2, 1, 4)
	ct.Report([][]float64{{5000}, {0}})
	ct.ResetHistory()
	alloc := ct.AllocateInterval(1000)
	if math.Abs(alloc[0][0]-alloc[1][0]) > 1 {
		t.Fatalf("after reset allocations unequal: %v vs %v", alloc[0][0], alloc[1][0])
	}
}

func TestAdaptionsHappenUnderOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.Tasks = 30000
	cfg.Load = 0.95 // hot partitions exceed capacity regularly
	cfg.ZipfS = 1.2 // hot keys hash onto hot partitions
	s := New(core.EqualMax{}, Options{})
	if _, err := engine.Run(cfg, s); err != nil {
		t.Fatal(err)
	}
	if s.Adaptions() == 0 {
		t.Fatal("no controller adaptations despite overload")
	}
}

func TestBurstSubTasksSplitAcrossReplicas(t *testing.T) {
	// With per-request placement (default), a huge sub-task should not
	// land entirely on one replica. We detect splitting via max queue:
	// pinned batches force deeper single-server queues.
	cfg := smallConfig()
	cfg.Tasks = 10000
	cfg.BurstProb = 0.02
	split := New(core.EqualMax{}, Options{})
	resSplit, err := engine.Run(cfg, split)
	if err != nil {
		t.Fatal(err)
	}
	pinned := New(core.EqualMax{}, Options{PinBatches: true})
	resPinned, err := engine.Run(cfg, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if resSplit.TaskLatency.P99 >= resPinned.TaskLatency.P99 {
		t.Fatalf("splitting did not improve p99: split=%d pinned=%d",
			resSplit.TaskLatency.P99, resPinned.TaskLatency.P99)
	}
}

func TestCreditsBeatsObliviousBaseline(t *testing.T) {
	cfg := smallConfig()
	cfg.Tasks = 20000
	brb := New(core.EqualMax{}, Options{})
	resBRB, err := engine.Run(cfg, brb)
	if err != nil {
		t.Fatal(err)
	}
	obliv := New(core.Oblivious{}, Options{})
	resObl, err := engine.Run(cfg, obliv)
	if err != nil {
		t.Fatal(err)
	}
	if resBRB.TaskLatency.Median >= resObl.TaskLatency.Median {
		t.Fatalf("task-aware priorities did not beat oblivious at median: %d vs %d",
			resBRB.TaskLatency.Median, resObl.TaskLatency.Median)
	}
}
