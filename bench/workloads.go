package main

import (
	"time"

	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

// keyspace is every workload's key count: "key:0" … "key:1999".
const keyspace = 2000

// closedOpsPerCaller is the length of one closed-loop caller's
// generated stream; a caller that exhausts it starts over, so the
// measured phase is bounded by time, not by the stream.
const closedOpsPerCaller = 10000

// workload is one named benchmark configuration: the cluster it
// spawns, how its clients are configured, and the op schedule it
// drives. Names and shapes are fixed: later changes are judged against
// them.
type workload struct {
	name string
	why  string
	// open selects the open-loop driver (ops issued at their scheduled
	// time, latency counted from it); otherwise 2·H closed-loop callers
	// run for the phase's duration.
	open bool

	shards, replicas, workers int
	discipline                netstore.Discipline
	// serviceDelay is the server's injected per-key service cost and
	// costModel the clients' matching forecast (zero: library default).
	serviceDelay func(valueSize int64) time.Duration
	costModel    core.CostModel
	assigner     core.Assigner
	// durable servers log every write to a WAL (fsync always) and the
	// run ends with a kill + restart + acked-version check.
	durable   bool
	hedge     netstore.HedgePolicy
	cacheSize int
	// slowDelay, when set, is armed on server 0 (shard 0, replica 0)
	// after the load: added service latency per key.
	slowDelay time.Duration
	// loadSizes is the value-size distribution of the load phase.
	loadSizes randx.BoundedPareto
	// spec builds the op schedule for a phase of the given length;
	// callers is the closed-loop caller count (ignored by open loops).
	spec func(seed uint64, seconds float64, callers int) *loadgen.Spec
	// readClass restricts read_p50_ms/read_p99_ms to one SLO class
	// ("" = every read); the other classes feed background_read_p99_ms.
	readClass string
}

// The repo's SoundCloud-like defaults: heavy-tailed values, geometric
// fan-out with rare playlist-sized bursts.
var (
	defaultLoadSizes = randx.BoundedPareto{Alpha: 1.0, L: 256, H: 64 << 10}
	defaultFanout    = loadgen.FanoutSpec{Mean: 8.6, BurstProb: 0.02, BurstMin: 24, BurstMax: 40}
)

// Millisecond-scale injected service cost, used by every workload but
// saturate. The host's timer quantum (~1.1 ms) distorts a sleeping
// ServiceDelay least at this scale, the server worker slots — not the
// host's two noisy cores — become the bottleneck, and latencies of
// 2–30 ms stand clear of the 1–5 ms stalls the host adds on its own
// (without it, slo-straggler's interactive p99 swung 1.8–4.0 ms and
// durable-mix's read p99 2.8–9.8 ms between runs).
const (
	serviceBase    = 500 * time.Microsecond
	servicePerByte = 250 * time.Nanosecond
)

func serviceDelay(valueSize int64) time.Duration {
	return serviceBase + time.Duration(valueSize)*servicePerByte
}

var serviceCost = core.CostModel{
	BaseNanos:   serviceBase.Nanoseconds(),
	PerBytePico: servicePerByte.Nanoseconds() * 1000,
}

func opsFor(rate, seconds float64) int {
	return max(1, int(rate*seconds))
}

// headlineSpec is shared by headline and headline-fifo so the same
// seed yields the same ops for both.
func headlineSpec(seed uint64, seconds float64, _ int) *loadgen.Spec {
	const rate = 500 // tasks/s, ≈65 % of the ≈750 tasks/s knee
	return &loadgen.Spec{
		Name: "headline", Seed: seed, Keys: keyspace,
		Clients: []loadgen.ClientSpec{{
			Name: "app", Workers: 4, Ops: opsFor(rate, seconds),
			Arrival: loadgen.ArrivalSpec{Process: "poisson", Rate: rate},
			Keys:    loadgen.KeySpec{Dist: "uniform"},
			Fanout:  defaultFanout,
		}},
	}
}

// saturateSpec gives each of the closed-loop callers its own read-only
// stream.
func saturateSpec(seed uint64, _ float64, callers int) *loadgen.Spec {
	return &loadgen.Spec{
		Name: "saturate", Seed: seed, Keys: keyspace,
		Clients: []loadgen.ClientSpec{{
			Name: "caller", Workers: callers, Ops: closedOpsPerCaller * callers,
			Arrival: loadgen.ArrivalSpec{Process: "closed"},
			Keys:    loadgen.KeySpec{Dist: "uniform"},
			Fanout:  defaultFanout,
		}},
	}
}

// durableSpec paces durable-mix open loop at a rate the slowest disk
// seen sustains with room to spare. Closed loop (2·H callers, no
// injected cost) its throughput is one over the host's fsync latency,
// and the development VM's disk drifts: ops/s ran 2900–5900 over ten
// runs one hour and 5700–8000 another, and every metric's ten-run
// quartile spread was 16–22 %, where the driver refuses a benchmark
// past 25 %. Paced, the spreads are 2–6 %, the disk's mood lands in
// the write latencies (layer block, no bound), and the bounded number
// the WAL moves is setup_s: the load is 2000 WriteAll Sets through it,
// about two fifths of that set-up (0.89 s against 0.51 s memory-only).
func durableSpec(seed uint64, seconds float64, _ int) *loadgen.Spec {
	const rate = 600 // ops/s, half of them writes; closed-loop capacity measured 2900–5900
	return &loadgen.Spec{
		Name: "durable-mix", Seed: seed, Keys: keyspace,
		Clients: []loadgen.ClientSpec{{
			Name: "mix", Workers: 4, Ops: opsFor(rate, seconds),
			Arrival: loadgen.ArrivalSpec{Process: "poisson", Rate: rate},
			Keys:    loadgen.KeySpec{Dist: "uniform"},
			Mix:     loadgen.MixSpec{Write: 0.5},
			Fanout:  loadgen.FanoutSpec{Mean: 4},
		}},
	}
}

// sloSpec is cmd/brb-load/testdata/three-class.yaml stretched to the
// phase length, at a sixth of the rates first planned (3000/3000/600
// ops/s, no injected service cost): at those this host's two cores ran
// bursts at saturation, the paced generator woke 4–5 timer quanta late
// at p99 and the interactive p99 swung 3.5–11 ms between runs of one
// seed. With ms-scale service costs these rates load the worker slots
// to about half, queues form, and class precedence has work to do.
func sloSpec(seed uint64, seconds float64, _ int) *loadgen.Spec {
	ms := func(n int) loadgen.Duration { return loadgen.Duration(time.Duration(n) * time.Millisecond) }
	return &loadgen.Spec{
		Name: "slo-straggler", Seed: seed, Keys: keyspace,
		Classes: []loadgen.ClassSpec{
			{Name: "interactive", Priority: 0},
			{Name: "batch", Priority: 1},
			{Name: "bulk", Priority: 2},
		},
		Clients: []loadgen.ClientSpec{
			{
				Name: "web", Class: "interactive", Workers: 4, Ops: opsFor(500, seconds),
				Arrival: loadgen.ArrivalSpec{Process: "poisson", Rate: 500},
				Keys:    loadgen.KeySpec{Dist: "zipf", S: 1.1},
				Mix:     loadgen.MixSpec{Write: 0.05},
				Fanout:  loadgen.FanoutSpec{Mean: 4, BurstProb: 0.02},
			},
			{
				// 50 ms bursts at 500 ops/s, 150 ms silences: 125 ops/s mean.
				Name: "etl", Class: "bulk", Workers: 2, Ops: opsFor(125, seconds),
				Arrival: loadgen.ArrivalSpec{Process: "onoff", Rate: 500, On: ms(50), Off: ms(150)},
				Keys:    loadgen.KeySpec{Dist: "hotspot", Hot: 64, HotFrac: 0.9, Churn: 500},
				Mix:     loadgen.MixSpec{Write: 0.4},
				Fanout:  loadgen.FanoutSpec{Mean: 2},
			},
			{
				Name: "cron", Class: "batch", Workers: 1, Ops: opsFor(100, seconds),
				Arrival: loadgen.ArrivalSpec{Process: "diurnal", Rate: 100, Period: ms(1000), Amplitude: 0.8},
				Keys:    loadgen.KeySpec{Dist: "uniform"},
				Fanout:  loadgen.FanoutSpec{Mean: 16, Max: 64},
			},
		},
	}
}

// workloads lists the five benchmark workloads in run order.
var workloads = []*workload{
	{
		name: "headline",
		why:  "open loop at 65% of the knee with ms-scale service costs: queueing at server workers decides latency, so core assigners, the priority scheduler and c3 move it; codec, syscalls and kv idle",
		open: true, shards: 3, replicas: 2, workers: 2,
		discipline: netstore.Priority, serviceDelay: serviceDelay, costModel: serviceCost,
		assigner: core.EqualMax{}, loadSizes: defaultLoadSizes, spec: headlineSpec,
	},
	{
		name: "headline-fifo",
		why:  "headline's bypass: the same schedule on FIFO servers with task-oblivious clients; a scheduling change must leave it unchanged, and the pair is the real-store Figure-2 row",
		open: true, shards: 3, replicas: 2, workers: 2,
		discipline: netstore.FIFO, serviceDelay: serviceDelay, costModel: serviceCost,
		assigner: core.Oblivious{}, loadSizes: defaultLoadSizes, spec: headlineSpec,
	},
	{
		name:   "saturate",
		why:    "closed loop, no injected cost, CPU-bound: wire codec, ConnWriter, syscalls, scheduler locks, kv.Store do the work; queues near empty, priority moot; only here do keys_per_s and ops_per_s measure speed",
		shards: 2, replicas: 2, workers: 4,
		discipline: netstore.Priority, assigner: core.EqualMax{}, loadSizes: defaultLoadSizes,
		spec: saturateSpec,
	},
	{
		name: "durable-mix",
		why:  "paced 600 ops/s, half Sets beside multigets on durable servers (fsync always, WriteAll): WAL cost shows in setup_s (2000-Set load) and unbounded write_* metrics; ends with kill, restart, version check",
		open: true, shards: 2, replicas: 2, workers: 4, durable: true,
		serviceDelay: serviceDelay, costModel: serviceCost,
		discipline: netstore.Priority, assigner: core.EqualMax{},
		loadSizes: randx.BoundedPareto{Alpha: 1.2, L: 256, H: 16 << 10},
		spec:      durableSpec,
	},
	{
		name: "slo-straggler",
		why:  "three SLO classes, open loop, one replica slowed 3 ms per key, hedged reads, 256-entry cache over 2000 keys: hedge, cache, c3 and class precedence decide the interactive tail and what background pays",
		open: true, shards: 2, replicas: 2, workers: 4,
		serviceDelay: serviceDelay, costModel: serviceCost,
		discipline: netstore.Priority, assigner: core.EqualMax{}, loadSizes: defaultLoadSizes,
		hedge: netstore.HedgePolicy{Mode: netstore.HedgeAdaptive}, cacheSize: 256,
		slowDelay: 3 * time.Millisecond, spec: sloSpec, readClass: "interactive",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
