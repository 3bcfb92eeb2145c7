// Package experiments regenerates every figure and table of the paper's
// evaluation (§2.2), plus the ablation sweeps listed in DESIGN.md §3. Each
// experiment returns a metrics.Table whose rows mirror what the paper
// plots, so the CLI and the benchmark harness print directly comparable
// output.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"github.com/brb-repro/brb/internal/baseline"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/credits"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/model"
	"github.com/brb-repro/brb/internal/sim"
)

func newModel(a core.Assigner) engine.Strategy { return model.New(a) }

// StrategyFactory builds a fresh strategy instance per run (strategies
// hold per-run state and must not be shared across runs).
type StrategyFactory func() engine.Strategy

// Figure2Strategies returns the five configurations of Figure 2 in the
// paper's legend order: C3, EqualMax-Credits, EqualMax-Model,
// UnifIncr-Credits, UnifIncr-Model.
func Figure2Strategies() map[string]StrategyFactory {
	return map[string]StrategyFactory{
		"C3":               func() engine.Strategy { return baseline.NewC3(baseline.C3Options{}) },
		"EqualMax-Credits": func() engine.Strategy { return credits.New(core.EqualMax{}, credits.Options{}) },
		"EqualMax-Model":   func() engine.Strategy { return newModel(core.EqualMax{}) },
		"UnifIncr-Credits": func() engine.Strategy { return credits.New(core.UnifIncr{}, credits.Options{}) },
		"UnifIncr-Model":   func() engine.Strategy { return newModel(core.UnifIncr{}) },
	}
}

// Figure2Order is the paper's legend order for stable table output.
var Figure2Order = []string{"C3", "EqualMax-Credits", "EqualMax-Model", "UnifIncr-Credits", "UnifIncr-Model"}

// RunSeeds executes a strategy across the given seeds and aggregates task
// latencies. Each seed generates its own trace (arrival process and value
// sizes differ), exactly as "experiments are repeated 6 times with
// different random seeds".
func RunSeeds(cfg engine.Config, factory StrategyFactory, seeds []uint64) (*metrics.SeedSet, []engine.Result, error) {
	var set metrics.SeedSet
	var results []engine.Result
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		res, err := engine.Run(c, factory())
		if err != nil {
			return nil, nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		set.Add(res.TaskLatency)
		results = append(results, res)
	}
	return &set, results, nil
}

// DefaultSeeds returns n distinct seeds (the paper uses 6).
func DefaultSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// Figure2 regenerates the paper's Figure 2: task latency at the median,
// 95th and 99th percentile for the five strategies, averaged across seeds.
func Figure2(cfg engine.Config, seeds []uint64) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: fmt.Sprintf(
		"Figure 2: task latency percentiles (ms) — %d clients, %d servers×%d cores, load %.0f%%, %d tasks, %d seeds",
		cfg.Clients, cfg.Servers, cfg.Cores, cfg.Load*100, cfg.Tasks, len(seeds))}
	strategies := Figure2Strategies()
	for _, name := range Figure2Order {
		set, _, err := RunSeeds(cfg, strategies[name], seeds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tbl.Add(metrics.RowFrom(name, set))
	}
	return tbl, nil
}

// Figure2Claims extracts the paper's two quantitative claims from a
// Figure 2 table: the credits-vs-model gap at p99 ("at the 99th percentile
// latency within 38% of an ideal system model") and the improvement over
// C3 ("latency improvements over the state-of-the-art by a factor of 2").
type Figure2Claims struct {
	// CreditsOverModelP99 is max over assigners of p99(credits)/p99(model).
	CreditsOverModelP99 float64
	// C3OverBestCreditsMedian/P95/P99 are p(C3)/p(best credits row).
	C3OverBestCreditsMedian float64
	C3OverBestCreditsP95    float64
	C3OverBestCreditsP99    float64
}

// Claims computes Figure2Claims from a Figure 2 table.
func Claims(tbl *metrics.Table) Figure2Claims {
	rows := map[string]metrics.Row{}
	for _, r := range tbl.Rows {
		rows[r.Label] = r
	}
	var cl Figure2Claims
	for _, a := range []string{"EqualMax", "UnifIncr"} {
		cr, okC := rows[a+"-Credits"]
		mo, okM := rows[a+"-Model"]
		if !okC || !okM || mo.P99MS == 0 {
			continue
		}
		if ratio := cr.P99MS / mo.P99MS; ratio > cl.CreditsOverModelP99 {
			cl.CreditsOverModelP99 = ratio
		}
	}
	c3row, okC3 := rows["C3"]
	if okC3 {
		best := metrics.Row{MedianMS: -1}
		for _, a := range []string{"EqualMax-Credits", "UnifIncr-Credits"} {
			if r, ok := rows[a]; ok && (best.MedianMS < 0 || r.P99MS < best.P99MS) {
				best = r
			}
		}
		if best.MedianMS > 0 {
			cl.C3OverBestCreditsMedian = c3row.MedianMS / best.MedianMS
			cl.C3OverBestCreditsP95 = c3row.P95MS / best.P95MS
			cl.C3OverBestCreditsP99 = c3row.P99MS / best.P99MS
		}
	}
	return cl
}

// String renders the claims next to the paper's numbers.
func (c Figure2Claims) String() string {
	return fmt.Sprintf(
		"credits/model @p99 = %.2f (paper: ≤1.38)\nC3/BRB-credits @median = %.2f, @p95 = %.2f (paper: up to 3×), @p99 = %.2f (paper: up to 2×)",
		c.CreditsOverModelP99, c.C3OverBestCreditsMedian, c.C3OverBestCreditsP95, c.C3OverBestCreditsP99)
}

// LoadSweep (A1) sweeps system load and reports p99 per strategy per load.
func LoadSweep(cfg engine.Config, seeds []uint64, loads []float64) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A1: p99 task latency (ms) vs load — rows are strategy@load"}
	strategies := Figure2Strategies()
	for _, load := range loads {
		c := cfg
		c.Load = load
		for _, name := range Figure2Order {
			set, _, err := RunSeeds(c, strategies[name], seeds)
			if err != nil {
				return nil, err
			}
			tbl.Add(metrics.RowFrom(fmt.Sprintf("%s@%.0f%%", name, load*100), set))
		}
	}
	return tbl, nil
}

// FanoutSweep (A2) sweeps mean task fan-out. The playlist-burst share is
// scaled with the fan-out target so the mixture stays feasible (a burst
// mean above the overall mean is impossible) and bursts remain the same
// fraction of total requests.
func FanoutSweep(cfg engine.Config, seeds []uint64, fanouts []float64) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A2: task latency (ms) vs mean fan-out"}
	strategies := Figure2Strategies()
	for _, f := range fanouts {
		c := cfg
		c.MeanFanout = f
		if cfg.MeanFanout > 0 {
			c.BurstProb = cfg.BurstProb * f / cfg.MeanFanout
		}
		for _, name := range Figure2Order {
			set, _, err := RunSeeds(c, strategies[name], seeds)
			if err != nil {
				return nil, err
			}
			tbl.Add(metrics.RowFrom(fmt.Sprintf("%s@fanout=%.1f", name, f), set))
		}
	}
	return tbl, nil
}

// IntervalSweep (A3) sweeps the credits adaptation interval.
func IntervalSweep(cfg engine.Config, seeds []uint64, intervals []sim.Time) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A3: credits adaptation-interval sensitivity (EqualMax-Credits)"}
	for _, iv := range intervals {
		iv := iv
		set, _, err := RunSeeds(cfg, func() engine.Strategy {
			return credits.New(core.EqualMax{}, credits.Options{AdaptInterval: iv})
		}, seeds)
		if err != nil {
			return nil, err
		}
		tbl.Add(metrics.RowFrom(fmt.Sprintf("adapt=%v", sim.Duration(iv)), set))
	}
	return tbl, nil
}

// ReplicationSweep (A4) sweeps the replication factor.
func ReplicationSweep(cfg engine.Config, seeds []uint64, factors []int) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A4: task latency (ms) vs replication factor"}
	strategies := Figure2Strategies()
	for _, r := range factors {
		c := cfg
		c.Replication = r
		for _, name := range Figure2Order {
			set, _, err := RunSeeds(c, strategies[name], seeds)
			if err != nil {
				return nil, err
			}
			tbl.Add(metrics.RowFrom(fmt.Sprintf("%s@R=%d", name, r), set))
		}
	}
	return tbl, nil
}

// PartitionSweep (A7) sweeps the partition count at a fixed server count —
// the simulation twin of the sharded netstore cluster (netstore.Cluster):
// with more partitions than servers every server belongs to many replica
// groups and tasks scatter across finer shards, so sub-task batches shrink
// while the per-task shard fan-out grows. Only the two headline strategies
// run (the sweep multiplies runs by the partition counts).
func PartitionSweep(cfg engine.Config, seeds []uint64, partitions []int) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A7: task latency (ms) vs partition count (sharded-cluster scenario)"}
	strategies := Figure2Strategies()
	for _, p := range partitions {
		c := cfg
		c.Partitions = p
		for _, name := range []string{"EqualMax-Credits", "C3"} {
			set, _, err := RunSeeds(c, strategies[name], seeds)
			if err != nil {
				return nil, err
			}
			tbl.Add(metrics.RowFrom(fmt.Sprintf("%s@P=%d", name, p), set))
		}
	}
	return tbl, nil
}

// NoiseSweep (A6) sweeps the service-forecast noise: BRB relies on
// forecasting request costs from value sizes, so this quantifies how much
// of the win survives bad forecasts (σ = 1.0 means the actual service
// time is routinely 2-3× off the estimate).
func NoiseSweep(cfg engine.Config, seeds []uint64, sigmas []float64) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A6: task latency (ms) vs forecast-noise sigma"}
	strategies := Figure2Strategies()
	for _, sg := range sigmas {
		c := cfg
		c.NoiseSigma = sg
		for _, name := range []string{"C3", "EqualMax-Credits", "EqualMax-Model"} {
			set, _, err := RunSeeds(c, strategies[name], seeds)
			if err != nil {
				return nil, err
			}
			tbl.Add(metrics.RowFrom(fmt.Sprintf("%s@sigma=%.1f", name, sg), set))
		}
	}
	return tbl, nil
}

// Variants (A5) compares priority-assignment variants and oblivious
// baselines under the credits realization and plain decentralized
// priority queues.
func Variants(cfg engine.Config, seeds []uint64) (*metrics.Table, error) {
	tbl := &metrics.Table{Title: "A5: priority-assignment variants and baselines"}
	factories := []struct {
		name string
		f    StrategyFactory
	}{
		{"EqualMax-Credits", func() engine.Strategy { return credits.New(core.EqualMax{}, credits.Options{}) }},
		{"UnifIncr-Credits", func() engine.Strategy { return credits.New(core.UnifIncr{}, credits.Options{}) }},
		{"UnifIncrSub-Credits", func() engine.Strategy { return credits.New(core.UnifIncrSub{}, credits.Options{}) }},
		{"SJFReq-Credits", func() engine.Strategy { return credits.New(core.SJFReq{}, credits.Options{}) }},
		{"Oblivious-Credits", func() engine.Strategy { return credits.New(core.Oblivious{}, credits.Options{}) }},
		{"EqualMax-LOR", func() engine.Strategy {
			return baseline.NewPriority(core.EqualMax{}, baseline.NewLeastOutstanding())
		}},
		{"Oblivious-Random", func() engine.Strategy { return baseline.New(baseline.Random{}) }},
		{"Oblivious-RoundRobin", func() engine.Strategy { return baseline.New(baseline.NewRoundRobin()) }},
		{"Oblivious-LOR", func() engine.Strategy { return baseline.New(baseline.NewLeastOutstanding()) }},
	}
	for _, fc := range factories {
		set, _, err := RunSeeds(cfg, fc.f, seeds)
		if err != nil {
			return nil, err
		}
		tbl.Add(metrics.RowFrom(fc.name, set))
	}
	return tbl, nil
}

// Stats summarizes one generated workload — the "Workload validation"
// table in EXPERIMENTS.md.
type Stats struct {
	Tasks, Requests int
	MeanFanout      float64
	MaxFanout       int
	MeanSize        float64 // bytes
	MeanService     float64 // ns
	HorizonSec      float64 // arrival time of the last task
	TaskRatePerS    float64
	// EffectiveLoad is the utilization the workload imposes on the tier
	// while every client is still issuing: offered service time /
	// (window × servers × cores). Each client issues an equal task
	// count, so the last ones to finish thin the final ≈2% of the
	// horizon; the window ends at the first client's last arrival.
	EffectiveLoad float64
	MeanEstErrPct float64 // mean |service−est|/est ×100
	Groups        int     // replica groups in the run's topology
}

// TraceStats builds the workload engine.Run would simulate for cfg and
// summarizes it.
func TraceStats(cfg engine.Config) (Stats, error) {
	topo, tasks, err := engine.Workload(cfg)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Tasks: len(tasks), Groups: topo.NumPartitions()}
	var sizeSum, svcSum, errSum float64
	lastArrival := make([]int64, cfg.Clients)
	for _, t := range tasks {
		lastArrival[t.Client] = t.ArriveAt
		st.Requests += t.Fanout()
		st.MaxFanout = max(st.MaxFanout, t.Fanout())
		for _, r := range t.Requests {
			sizeSum += float64(r.Size)
			svcSum += float64(r.Service)
			errSum += math.Abs(float64(r.Service-r.EstCost)) / float64(r.EstCost)
		}
	}
	n := float64(st.Requests)
	st.MeanFanout = n / float64(st.Tasks)
	st.MeanSize = sizeSum / n
	st.MeanService = svcSum / n
	st.MeanEstErrPct = errSum / n * 100
	st.HorizonSec = float64(tasks[len(tasks)-1].ArriveAt) / 1e9
	st.TaskRatePerS = float64(st.Tasks) / st.HorizonSec
	steadyEnd := tasks[len(tasks)-1].ArriveAt
	for _, l := range lastArrival {
		if l > 0 { // a client with no tasks never issued
			steadyEnd = min(steadyEnd, l)
		}
	}
	var work float64
	for _, t := range tasks {
		if t.ArriveAt > steadyEnd {
			break
		}
		for _, r := range t.Requests {
			work += float64(r.Service)
		}
	}
	st.EffectiveLoad = work / float64(steadyEnd) / float64(cfg.Servers*cfg.Cores)
	return st, nil
}

// SortedNames returns strategy map keys in deterministic order (helper for
// CLIs iterating Figure2Strategies directly).
func SortedNames(m map[string]StrategyFactory) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
