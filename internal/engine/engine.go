// Package engine wires the simulation together: it builds the topology,
// draws the workload from loadgen (the generator the real store's load
// runs use) and gives it the simulator's service model, instantiates the
// backend tier for a scheduling strategy, models the network (fixed
// one-way latency, 50 µs in the paper), drives task arrivals through the
// client-side BRB pipeline (decompose → estimate → prioritize → select
// replicas → send), and records task/request latencies.
package engine

import (
	"fmt"

	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/randx"
	"github.com/brb-repro/brb/internal/sim"
)

// Config describes one simulation run. Defaults() returns the paper's
// §2.2 settings.
type Config struct {
	Servers     int     // storage servers (paper: 9)
	Clients     int     // application servers (paper: 18)
	Cores       int     // cores per server (paper: 4)
	Replication int     // replication factor R (paper: 3)
	Partitions  int     // data partitions / replica groups (0 = one per server); >Servers models a sharded cluster scenario
	ServiceRate float64 // mean per-core service rate, req/s (paper: 3500)
	NetOneWay   sim.Time
	Load        float64 // fraction of capacity (paper: 0.7)
	Tasks       int     // tasks to simulate (paper: ~500k)
	MeanFanout  float64 // paper: 8.6
	Keys        int
	ZipfS       float64 // key-popularity Zipf exponent (0 = uniform)
	NoiseSigma  float64 // service-time forecast noise
	WarmupFrac  float64 // leading fraction of tasks excluded from stats
	Seed        uint64

	// Size-distribution overrides (zero values take the bounded Pareto
	// of SizeDist); exposed for sensitivity analysis.
	SizeAlpha float64
	SizeMin   float64
	SizeMax   float64
	// BurstProb is the share of tasks that are playlist bursts with
	// fan-out Uniform[50, 400]; zero disables bursts.
	BurstProb float64
}

// SizeDist returns the value-size distribution for this config: by
// default a bounded Pareto (the paper generates sizes "using a Pareto
// distribution based on [the Atikoglu et al.] study"), with a tail heavy
// enough that a request's service time can exceed the mean by ~10-20×
// — the skew task-aware scheduling exploits — while the largest value
// (128 KiB) keeps per-request service in the single-millisecond range of
// Figure 2's axis. Mean ≈ 5.0 KiB; P(size > 64 KiB) ≈ 1.2%.
func (c Config) SizeDist() randx.BoundedPareto {
	sd := randx.BoundedPareto{Alpha: 1.0, L: 1024, H: 128 << 10}
	if c.SizeAlpha > 0 {
		sd.Alpha = c.SizeAlpha
	}
	if c.SizeMin > 0 {
		sd.L = c.SizeMin
	}
	if c.SizeMax > 0 {
		sd.H = c.SizeMax
	}
	return sd
}

// Defaults returns the paper's simulation parameters with a harness-sized
// task count (raise Tasks to 500000 to match the paper exactly; the shape
// is identical, see EXPERIMENTS.md).
func Defaults() Config {
	return Config{
		Servers:     9,
		Clients:     18,
		Cores:       4,
		Replication: 3,
		ServiceRate: 3500,
		NetOneWay:   50 * sim.Microsecond,
		Load:        0.70,
		Tasks:       120000,
		MeanFanout:  8.6,
		Keys:        100000,
		ZipfS:       0.9,
		BurstProb:   0.016,
		NoiseSigma:  0.3,
		WarmupFrac:  0.1,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Servers <= 0, c.Clients <= 0, c.Cores <= 0:
		return fmt.Errorf("engine: Servers/Clients/Cores must be positive: %+v", c)
	case c.Replication <= 0 || c.Replication > c.Servers:
		return fmt.Errorf("engine: Replication %d out of [1,%d]", c.Replication, c.Servers)
	case c.Partitions < 0:
		return fmt.Errorf("engine: Partitions %d must be >= 0", c.Partitions)
	case !(c.ServiceRate > 0):
		return fmt.Errorf("engine: ServiceRate %v must be positive", c.ServiceRate)
	case c.NetOneWay < 0:
		return fmt.Errorf("engine: NetOneWay %d must be >= 0", c.NetOneWay)
	case !(c.Load > 0) || c.Load >= 1.5:
		return fmt.Errorf("engine: Load %v out of (0,1.5)", c.Load)
	case c.Tasks <= 0:
		return fmt.Errorf("engine: Tasks %d must be positive", c.Tasks)
	case c.WarmupFrac < 0 || c.WarmupFrac >= 1:
		return fmt.Errorf("engine: WarmupFrac %v out of [0,1)", c.WarmupFrac)
	case !(c.MeanFanout >= 1):
		return fmt.Errorf("engine: MeanFanout %v must be >= 1", c.MeanFanout)
	case c.Keys <= 0:
		return fmt.Errorf("engine: Keys %d must be positive", c.Keys)
	case c.ZipfS < 0:
		return fmt.Errorf("engine: ZipfS %v must be >= 0", c.ZipfS)
	case c.NoiseSigma < 0:
		return fmt.Errorf("engine: NoiseSigma %v must be >= 0", c.NoiseSigma)
	case c.BurstProb < 0 || c.BurstProb >= 1:
		return fmt.Errorf("engine: BurstProb %v out of [0,1)", c.BurstProb)
	case c.geometricMean() < 1:
		return fmt.Errorf("engine: BurstProb %v leaves MeanFanout %v a geometric mean %.2f < 1", c.BurstProb, c.MeanFanout, c.geometricMean())
	}
	return c.SizeDist().Validate()
}

// CostModel derives the service-cost model implied by the config: mean
// service time 1/ServiceRate at the mean value size, 30% size-independent.
func (c Config) CostModel() core.CostModel {
	return core.CalibrateCostModel(1e9/c.ServiceRate, c.SizeDist().Mean(), 0.3)
}

// Feedback is the per-response information a server piggybacks to the
// client (what C3's replica ranking consumes).
type Feedback struct {
	// QueueLen is the server's queue length when the request started
	// service.
	QueueLen int
	// Waited is the time the request spent queued at the server.
	Waited sim.Time
	// Service is the request's actual service duration.
	Service sim.Time
}

// Context exposes the simulation internals to strategies.
type Context struct {
	Eng     *sim.Engine
	Topo    *cluster.Topology
	Cfg     Config
	Servers []*backend.Server
	RNG     *randx.RNG // strategy-private randomness, split from the run seed
}

// Send delivers a request to a queue-mode server after the one-way network
// delay.
func (ctx *Context) Send(req *core.Request, s cluster.ServerID) {
	srv := ctx.Servers[s]
	ctx.Eng.After(ctx.Cfg.NetOneWay, func() { srv.Enqueue(req) })
}

// ServerCapacityPerSec returns one server's aggregate service rate in
// requests/second (cores × per-core rate).
func (ctx *Context) ServerCapacityPerSec() float64 {
	return float64(ctx.Cfg.Cores) * ctx.Cfg.ServiceRate
}

// Strategy is a complete scheduling scheme: a priority-assignment
// algorithm, a backend-tier construction (queue discipline or
// work-pulling), client-side replica selection, and optional feedback
// processing.
type Strategy interface {
	// Name identifies the strategy in result tables (e.g.
	// "EqualMax-Credits").
	Name() string
	// Assigner returns the priority-assignment algorithm applied to
	// every task before Submit.
	Assigner() core.Assigner
	// BuildServers constructs the backend tier. Most strategies call
	// QueueServers; the ideal model builds work-pulling servers.
	BuildServers(ctx *Context) []*backend.Server
	// Setup runs once after servers exist; strategies install periodic
	// processes (credit refills, controller adaptation) here.
	Setup(ctx *Context)
	// Submit schedules a prepared task's requests onto servers.
	Submit(ctx *Context, task *core.Task, subs []core.SubTask)
	// OnResponse observes a completed request (client side, after the
	// response network delay).
	OnResponse(ctx *Context, req *core.Request, server cluster.ServerID, fb Feedback)
}

// QueueServers builds one queue-mode server per topology slot with
// disciplines from f — the standard tier for decentralized strategies.
func QueueServers(ctx *Context, f queue.Factory[*core.Request]) []*backend.Server {
	servers := make([]*backend.Server, ctx.Cfg.Servers)
	for i := range servers {
		servers[i] = backend.New(ctx.Eng, cluster.ServerID(i), ctx.Cfg.Cores, f())
	}
	return servers
}

// Result holds everything a run produces.
type Result struct {
	Strategy string
	Config   Config
	// TaskLatency is the distribution of task completion times
	// (arrival → last response), warm-up excluded.
	TaskLatency metrics.Summary
	// RequestLatency is the distribution of request completion times
	// measured from the owning task's arrival (so a task's last request
	// equals the task latency; early requests show the benefit of
	// priority scheduling on individual reads).
	RequestLatency metrics.Summary
	// TaskHist and RequestHist are the underlying histograms for callers
	// that need more quantiles.
	TaskHist    *metrics.Histogram
	RequestHist *metrics.Histogram
	// MeanUtilization is the realized mean server utilization.
	MeanUtilization float64
	// MaxServerQueue is the deepest server queue observed.
	MaxServerQueue int
	// Events is the number of simulation events executed.
	Events uint64
	// SimulatedSeconds is the simulated duration.
	SimulatedSeconds float64
	// Tasks is the number of measured (post-warm-up) tasks.
	Tasks uint64
}

// Run executes one simulation.
func Run(cfg Config, s Strategy) (Result, error) {
	topo, tasks, err := Workload(cfg)
	if err != nil {
		return Result{}, err
	}
	eng := &sim.Engine{}
	ctx := &Context{
		Eng:  eng,
		Topo: topo,
		Cfg:  cfg,
		RNG:  randx.New(cfg.Seed ^ 0xb5297a4d3f84d5a9),
	}
	ctx.Servers = s.BuildServers(ctx)
	if len(ctx.Servers) != cfg.Servers {
		return Result{}, fmt.Errorf("engine: strategy built %d servers, want %d", len(ctx.Servers), cfg.Servers)
	}

	taskHist := metrics.NewLatencyHistogram()
	reqHist := metrics.NewLatencyHistogram()
	warmupCut := int(float64(len(tasks)) * cfg.WarmupFrac)

	// Per-task countdown of outstanding requests, and a global response
	// counter: the run ends when every response has arrived (periodic
	// strategy processes — credit refills, rate ticks — reschedule
	// themselves forever and must not keep the engine alive).
	remaining := make([]int, len(tasks))
	totalResponses := 0
	for i, t := range tasks {
		remaining[i] = t.Fanout()
		totalResponses += t.Fanout()
	}
	gotResponses := 0

	assigner := s.Assigner()

	// Response path: server completion → net delay → client bookkeeping
	// and strategy feedback.
	for _, srv := range ctx.Servers {
		srv := srv
		srv.OnComplete = func(req *core.Request, qlen int, waited sim.Time) {
			fb := Feedback{QueueLen: qlen, Waited: waited, Service: req.Service}
			eng.After(cfg.NetOneWay, func() {
				task := tasks[req.TaskID]
				reqHist.Record(eng.Now() - task.ArriveAt)
				s.OnResponse(ctx, req, srv.ID, fb)
				gotResponses++
				remaining[req.TaskID]--
				if remaining[req.TaskID] == 0 && int(req.TaskID) >= warmupCut {
					taskHist.Record(eng.Now() - task.ArriveAt)
				}
			})
		}
	}

	s.Setup(ctx)

	// Arrival path: chain arrivals rather than pre-scheduling all tasks,
	// keeping the event heap small.
	var scheduleTask func(i int)
	scheduleTask = func(i int) {
		if i >= len(tasks) {
			return
		}
		task := tasks[i]
		eng.At(task.ArriveAt, func() {
			subs := core.Prepare(task, assigner)
			s.Submit(ctx, task, subs)
			scheduleTask(i + 1)
		})
	}
	scheduleTask(0)
	for gotResponses < totalResponses && eng.Step() {
	}

	// All tasks must have completed — the simulation has no loss.
	for i, r := range remaining {
		if r != 0 {
			return Result{}, fmt.Errorf("engine: task %d finished with %d outstanding requests", i, r)
		}
	}

	res := Result{
		Strategy:         s.Name(),
		Config:           cfg,
		TaskLatency:      taskHist.Summarize(),
		RequestLatency:   reqHist.Summarize(),
		TaskHist:         taskHist,
		RequestHist:      reqHist,
		Events:           eng.Executed(),
		SimulatedSeconds: float64(eng.Now()) / 1e9,
		Tasks:            taskHist.Count(),
	}
	var util float64
	for _, srv := range ctx.Servers {
		util += srv.Utilization(eng.Now())
		if q := srv.Stats().MaxQueueLen; q > res.MaxServerQueue {
			res.MaxServerQueue = q
		}
	}
	res.MeanUtilization = util / float64(len(ctx.Servers))
	return res, nil
}
