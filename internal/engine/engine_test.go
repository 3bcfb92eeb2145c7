package engine

import (
	"testing"

	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/queue"
)

// fifoRandom is a minimal self-contained strategy for engine tests: FIFO
// servers, first-replica selection, oblivious priorities.
type fifoRandom struct{ submits, responses int }

func (f *fifoRandom) Name() string            { return "test-fifo" }
func (f *fifoRandom) Assigner() core.Assigner { return core.Oblivious{} }
func (f *fifoRandom) BuildServers(ctx *Context) []*backend.Server {
	return QueueServers(ctx, queue.FIFOFactory[*core.Request])
}
func (f *fifoRandom) Setup(*Context) {}
func (f *fifoRandom) Submit(ctx *Context, task *core.Task, subs []core.SubTask) {
	f.submits++
	for i := range subs {
		target := ctx.Topo.Replicas(subs[i].Group)[0]
		for _, r := range subs[i].Requests {
			ctx.Send(r, target)
		}
	}
}
func (f *fifoRandom) OnResponse(*Context, *core.Request, cluster.ServerID, Feedback) {
	f.responses++
}

func smallConfig() Config {
	cfg := Defaults()
	cfg.Tasks = 2000
	cfg.Keys = 5000
	return cfg
}

func TestRunCompletesAllTasks(t *testing.T) {
	s := &fifoRandom{}
	res, err := Run(smallConfig(), s)
	if err != nil {
		t.Fatal(err)
	}
	if s.submits != 2000 {
		t.Fatalf("submits = %d", s.submits)
	}
	if res.Tasks != uint64(2000-200) { // 10% warm-up excluded
		t.Fatalf("measured tasks = %d, want 1800", res.Tasks)
	}
	if res.TaskLatency.Count == 0 || res.RequestLatency.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if res.Events == 0 || res.SimulatedSeconds <= 0 {
		t.Fatal("no events executed")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig(), &fifoRandom{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig(), &fifoRandom{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TaskLatency != b.TaskLatency || a.Events != b.Events {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a.TaskLatency, b.TaskLatency)
	}
}

// TestClusterScenarioPartitions runs the sharded-cluster scenario: more
// partitions than servers, so every server serves many replica groups and
// tasks scatter across finer shards. All tasks must still complete.
func TestClusterScenarioPartitions(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitions = 3 * cfg.Servers
	s := &fifoRandom{}
	res, err := Run(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != uint64(2000-200) {
		t.Fatalf("measured tasks = %d, want 1800", res.Tasks)
	}
	baselineRes, err := Run(smallConfig(), &fifoRandom{})
	if err != nil {
		t.Fatal(err)
	}
	// Finer sharding changes schedules, so the runs must genuinely differ.
	if res.Events == baselineRes.Events && res.TaskLatency == baselineRes.TaskLatency {
		t.Fatal("partitioned run identical to default run; Partitions not applied")
	}
	cfg.Partitions = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative Partitions accepted")
	}
}

func TestSeedChangesResults(t *testing.T) {
	cfg := smallConfig()
	a, _ := Run(cfg, &fifoRandom{})
	cfg.Seed = 999
	b, _ := Run(cfg, &fifoRandom{})
	if a.TaskLatency.Median == b.TaskLatency.Median && a.Events == b.Events {
		t.Fatal("different seeds produced identical results")
	}
}

func TestLatencyIncludesNetworkRTT(t *testing.T) {
	// Minimum possible task latency = 2×NetOneWay + min service.
	res, err := Run(smallConfig(), &fifoRandom{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskLatency.Min < 2*int64(smallConfig().NetOneWay) {
		t.Fatalf("min latency %d below network RTT", res.TaskLatency.Min)
	}
}

func TestUtilizationNearConfiguredLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.Tasks = 20000
	res, err := Run(cfg, &fifoRandom{})
	if err != nil {
		t.Fatal(err)
	}
	// First-replica selection concentrates the skewed partitions on a
	// few servers, which saturate and stretch the run — so mean
	// utilization lands well below the offered 0.7 but must stay
	// plausible (all work was served; no server can exceed 1).
	if res.MeanUtilization < 0.3 || res.MeanUtilization > 1.0 {
		t.Fatalf("mean utilization = %v out of (0.3, 1.0]", res.MeanUtilization)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Replication = 0 },
		func(c *Config) { c.Replication = c.Servers + 1 },
		func(c *Config) { c.ServiceRate = 0 },
		func(c *Config) { c.NetOneWay = -1 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 2 },
		func(c *Config) { c.Tasks = 0 },
		func(c *Config) { c.WarmupFrac = 1 },
	}
	expectRejected(t, bad)
}

func TestValidateRejectsWorkloadFields(t *testing.T) {
	expectRejected(t, []func(*Config){
		func(c *Config) { c.MeanFanout = 0.5 },
		func(c *Config) { c.Keys = 0 },
		func(c *Config) { c.ZipfS = -1 },
		func(c *Config) { c.NoiseSigma = -0.1 },
		func(c *Config) { c.BurstProb = -0.01 },
		func(c *Config) { c.BurstProb = 1 },
		func(c *Config) { c.SizeMin = 1 << 20 }, // above SizeMax
	})
}

func TestValidateRejectsBurstExceedingMean(t *testing.T) {
	expectRejected(t, []func(*Config){
		func(c *Config) { c.BurstProb = 0.5 }, // 0.5 × 225 ≫ 8.6: no geometric mean ≥ 1 is left
	})
}

// expectRejected checks that each mutation of the defaults is refused by
// both Validate and Run.
func expectRejected(t *testing.T, bad []func(*Config)) {
	t.Helper()
	for i, mut := range bad {
		cfg := Defaults()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d accepted by Validate", i)
		}
		if _, err := Run(cfg, &fifoRandom{}); err == nil {
			t.Fatalf("bad config %d accepted by Run", i)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	cfg := Defaults()
	if cfg.Servers != 9 || cfg.Clients != 18 || cfg.Cores != 4 {
		t.Fatalf("defaults tier = %d/%d/%d, want 9/18/4", cfg.Servers, cfg.Clients, cfg.Cores)
	}
	if cfg.ServiceRate != 3500 {
		t.Fatalf("service rate = %v", cfg.ServiceRate)
	}
	if cfg.NetOneWay != 50_000 {
		t.Fatalf("one-way latency = %dns, want 50µs", cfg.NetOneWay)
	}
	if cfg.Load != 0.70 || cfg.MeanFanout != 8.6 {
		t.Fatalf("load/fanout = %v/%v", cfg.Load, cfg.MeanFanout)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelCalibration(t *testing.T) {
	cfg := Defaults()
	cm := cfg.CostModel()
	sd := cfg.SizeDist()
	got := cm.Estimate(int64(sd.Mean()))
	want := int64(1e9 / cfg.ServiceRate)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff)/float64(want) > 0.02 {
		t.Fatalf("mean-size estimate %dns, want ~%dns (1/rate)", got, want)
	}
}

func TestFeedbackValuesSane(t *testing.T) {
	type fbcheck struct {
		fifoRandom
		t      *testing.T
		checks int
	}
	s := &fbcheck{t: t}
	base := &s.fifoRandom
	wrap := &feedbackWrapper{inner: base, check: func(fb Feedback) {
		s.checks++
		if fb.Service <= 0 {
			t.Error("feedback with non-positive service")
		}
		if fb.Waited < 0 || fb.QueueLen < 0 {
			t.Error("negative wait/queue in feedback")
		}
	}}
	if _, err := Run(smallConfig(), wrap); err != nil {
		t.Fatal(err)
	}
	if s.checks == 0 {
		t.Fatal("no feedback observed")
	}
}

type feedbackWrapper struct {
	inner *fifoRandom
	check func(Feedback)
}

func (w *feedbackWrapper) Name() string            { return w.inner.Name() }
func (w *feedbackWrapper) Assigner() core.Assigner { return w.inner.Assigner() }
func (w *feedbackWrapper) BuildServers(ctx *Context) []*backend.Server {
	return w.inner.BuildServers(ctx)
}
func (w *feedbackWrapper) Setup(ctx *Context) { w.inner.Setup(ctx) }
func (w *feedbackWrapper) Submit(ctx *Context, task *core.Task, subs []core.SubTask) {
	w.inner.Submit(ctx, task, subs)
}
func (w *feedbackWrapper) OnResponse(ctx *Context, r *core.Request, s cluster.ServerID, fb Feedback) {
	w.check(fb)
	w.inner.OnResponse(ctx, r, s, fb)
}
