package engine

import (
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/randx"
)

// Playlist bursts draw their fan-out from Uniform[burstMin, burstMax]
// (mean burstMean): the paper's motivation is fan-outs of "tens to
// thousands" of accesses, and rare huge tasks are what floods FIFO
// queues.
const (
	burstMin, burstMax = 50, 400
	burstMean          = (burstMin + burstMax) / 2.0
)

// geometricMean is the mean of the non-burst (geometric) fan-out that
// keeps the overall mean at MeanFanout. loadgen's geometric is
// untruncated, so the mixture mean is exact.
func (c Config) geometricMean() float64 {
	return (c.MeanFanout - c.BurstProb*burstMean) / (1 - c.BurstProb)
}

// Spec is the SoundCloud-like workload of paper §2.2 as a loadgen spec —
// the same generator brb-load and bench/ replay against the real store:
// one client whose Clients workers each issue a Poisson stream of
// read-only multigets (together one Poisson process at the rate that
// drives the tier at Load, each task's client uniform), keys Zipf(ZipfS)
// over the key space, fan-out geometric with playlist bursts. Partition
// skew is what the key skew leaves after hashing keys to groups, as on
// the store.
func (c Config) Spec() *loadgen.Spec {
	keys := loadgen.KeySpec{Dist: "zipf", S: c.ZipfS}
	if c.ZipfS == 0 {
		keys = loadgen.KeySpec{Dist: "uniform"}
	}
	return &loadgen.Spec{
		Name: "soundcloud", Seed: c.Seed, Keys: c.Keys,
		Clients: []loadgen.ClientSpec{{
			Name: "app", Workers: c.Clients, Ops: c.Tasks,
			Arrival: loadgen.ArrivalSpec{Process: "poisson",
				Rate: ArrivalRateForLoad(c.Load, c.Servers, c.Cores, c.CostModel(), c.SizeDist().Mean(), c.MeanFanout)},
			Keys: keys,
			Fanout: loadgen.FanoutSpec{Mean: c.geometricMean(),
				BurstProb: c.BurstProb, BurstMin: burstMin, BurstMax: burstMax},
		}},
	}
}

// Tasks turns the ops of c.Spec() into simulator tasks: op i is task i, arriving
// at its TS from client Worker, and each key one request to the key's
// replica group. Value sizes and the LogNormal (mean 1) service noise are
// the simulator's service model, not the workload's: they are drawn here,
// from streams split off Seed, so every strategy replays the same demands.
func Tasks(c Config, ops []loadgen.Op, topo *cluster.Topology) []*core.Task {
	root := randx.New(c.Seed)
	sizeRNG, noiseRNG := root.Split(), root.Split()
	sd, cm := c.SizeDist(), c.CostModel()
	sigma := c.NoiseSigma
	tasks := make([]*core.Task, len(ops))
	var id uint64
	for i, op := range ops {
		t := &core.Task{ID: uint64(i), Client: op.Worker, ArriveAt: op.TS,
			Requests: make([]*core.Request, len(op.Keys))}
		for j, k := range op.Keys {
			size := int64(sd.Sample(sizeRNG))
			est := cm.Estimate(size)
			service := est
			if sigma > 0 {
				service = int64(float64(est) * noiseRNG.LogNormal(-sigma*sigma/2, sigma))
			}
			t.Requests[j] = &core.Request{ID: id, TaskID: t.ID, Client: t.Client,
				Key: uint64(k), Group: topo.GroupOfKeyID(uint64(k)),
				Size: size, EstCost: est, Service: max(service, 1)}
			id++
		}
		tasks[i] = t
	}
	return tasks
}

// Workload validates cfg and builds the run's topology and tasks.
func Workload(cfg Config) (*cluster.Topology, []*core.Task, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	topo, err := cluster.New(cluster.Config{Servers: cfg.Servers, Partitions: cfg.Partitions, Replication: cfg.Replication})
	if err != nil {
		return nil, nil, err
	}
	ops, err := loadgen.Generate(cfg.Spec())
	if err != nil {
		return nil, nil, err
	}
	return topo, Tasks(cfg, ops, topo), nil
}

// CapacityRequestsPerSec is the backend tier's aggregate service capacity
// in requests/second: servers × cores / the mean-size service time.
func CapacityRequestsPerSec(servers, cores int, cm core.CostModel, meanSize float64) float64 {
	meanServiceNanos := float64(cm.Estimate(int64(meanSize)))
	if meanServiceNanos <= 0 {
		return 0
	}
	return float64(servers*cores) * 1e9 / meanServiceNanos
}

// ArrivalRateForLoad is the task arrival rate (tasks/s) that drives the
// tier at the given utilization (the paper matches 70% of capacity).
func ArrivalRateForLoad(load float64, servers, cores int, cm core.CostModel, meanSize, meanFanout float64) float64 {
	return load * CapacityRequestsPerSec(servers, cores, cm, meanSize) / meanFanout
}
