// Package credits implements BRB's realizable scheduling strategy (paper
// §2.2): "clients report their demands at measurement intervals and are
// assigned credits (i.e., shares of server capacity) proportionally to
// demands via a logically-centralized controller; once demand exceeds
// server capacity, a congestion signal is sent to the controller and the
// credits allocations are adapted accordingly at 1s intervals. In such a
// realization, each server maintains a separate priority-queue."
//
// Mechanics:
//
//   - Every client holds a credit balance per server, topped up each
//     measurement interval (default 25 ms) from the controller's current
//     allocation. Credits are denominated in estimated service
//     nanoseconds (shares of server capacity).
//   - Replica selection for a sub-task picks the replica with the largest
//     credit balance (ties: least outstanding client work, then server
//     id). Balances may run negative — credits steer placement and feed
//     congestion detection; they are deliberately not a hard admission
//     gate, which would add up to an interval of head-of-line latency.
//   - Clients accumulate demand (estimated nanoseconds sent per server).
//     Demand reports reach the controller each measurement interval.
//   - The controller re-computes proportional allocations on a congestion
//     signal (any server's reported demand exceeding its capacity) at
//     most every adaptation interval (default 1 s), matching the paper.
package credits

import (
	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/sim"
)

// Options tune the credits machinery; zero values take the paper-aligned
// defaults.
type Options struct {
	// MeasureInterval is the demand-report / credit-refill period
	// (default 25 ms).
	MeasureInterval sim.Time
	// AdaptInterval is the controller's allocation-adaptation period on
	// congestion (paper: 1 s).
	AdaptInterval sim.Time
	// BurstIntervals caps the credit balance at this many intervals of
	// allocation (default 2).
	BurstIntervals float64
	// PinBatches forces each sub-task to a single replica server.
	// Default (false) follows the paper's spatial optimization — replica
	// selection is load-aware per operation ("jointly optimize replica
	// selection across all operations in a task"), so large sub-tasks
	// may split across the group's replicas as balances deplete.
	PinBatches bool
}

func (o Options) withDefaults() Options {
	if o.MeasureInterval <= 0 {
		o.MeasureInterval = 25 * sim.Millisecond
	}
	if o.AdaptInterval <= 0 {
		o.AdaptInterval = sim.Second
	}
	if o.BurstIntervals <= 0 {
		o.BurstIntervals = 2
	}
	return o
}

// Strategy is the credits realization of BRB.
type Strategy struct {
	assigner core.Assigner
	opts     Options

	ctx *engine.Context
	// balance[c][s] is client c's credit balance at server s, in
	// estimated service nanoseconds.
	balance [][]float64
	// alloc[c][s] is the per-measurement-interval credit grant.
	alloc [][]float64
	// demand[c][s] accumulates estimated nanoseconds client c sent
	// toward s since the last controller adaptation.
	demand [][]float64
	// outstanding[c][s] tracks in-flight estimated work for tie-breaks.
	outstanding [][]int64

	controller *Controller
	adaptions  int
}

// New returns a credits strategy with the given assigner (the paper
// evaluates EqualMax-Credits and UnifIncr-Credits).
func New(a core.Assigner, opts Options) *Strategy {
	return &Strategy{assigner: a, opts: opts.withDefaults()}
}

// Name implements engine.Strategy.
func (s *Strategy) Name() string { return s.assigner.Name() + "-Credits" }

// Assigner implements engine.Strategy.
func (s *Strategy) Assigner() core.Assigner { return s.assigner }

// BuildServers implements engine.Strategy: every server keeps its own
// priority queue.
func (s *Strategy) BuildServers(ctx *engine.Context) []*backend.Server {
	return engine.QueueServers(ctx, queue.PriorityFactory[*core.Request])
}

// Setup implements engine.Strategy: initialize equal-share allocations and
// start the refill and adaptation processes.
func (s *Strategy) Setup(ctx *engine.Context) {
	s.ctx = ctx
	nC, nS := ctx.Cfg.Clients, ctx.Cfg.Servers
	s.balance = mat(nC, nS)
	s.alloc = mat(nC, nS)
	s.demand = mat(nC, nS)
	s.outstanding = make([][]int64, nC)
	for i := range s.outstanding {
		s.outstanding[i] = make([]int64, nS)
	}

	s.controller = NewController(nC, nS, float64(ctx.Cfg.Cores))

	// Initial allocation: equal shares of each server's capacity.
	perInterval := s.capacityNanosPerMeasure() / float64(nC)
	for c := 0; c < nC; c++ {
		for sv := 0; sv < nS; sv++ {
			s.alloc[c][sv] = perInterval
			s.balance[c][sv] = perInterval
		}
	}

	ctx.Eng.Every(s.opts.MeasureInterval, s.refillAndReport)
	ctx.Eng.Every(s.opts.AdaptInterval, s.adapt)
}

// capacityNanosPerMeasure is one server's service capacity per measurement
// interval, expressed in service-nanoseconds (cores × interval).
func (s *Strategy) capacityNanosPerMeasure() float64 {
	return float64(s.ctx.Cfg.Cores) * float64(s.opts.MeasureInterval)
}

func mat(r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
	}
	return m
}

// refillAndReport runs every measurement interval: deliver the interval's
// demand report, receive the controller's proportional credit assignment
// for the next interval (paper: "clients report their demands at
// measurement intervals and are assigned credits ... proportionally to
// demands"), and top up balances. Report/assign latency is negligible at
// 50 µs against the interval and is omitted.
func (s *Strategy) refillAndReport() {
	s.controller.Report(s.demand)
	newAlloc := s.controller.AllocateInterval(float64(s.opts.MeasureInterval))
	for c := range s.balance {
		for sv := range s.balance[c] {
			s.alloc[c][sv] = newAlloc[c][sv]
			s.demand[c][sv] = 0
			s.balance[c][sv] += s.alloc[c][sv]
			if burst := s.alloc[c][sv] * s.opts.BurstIntervals; s.balance[c][sv] > burst {
				s.balance[c][sv] = burst
			}
			if floor := -burstFloorIntervals * s.alloc[c][sv]; s.balance[c][sv] < floor {
				s.balance[c][sv] = floor
			}
		}
	}
}

// burstFloorIntervals bounds how negative a balance may run (in intervals
// of allocation) so a single huge batch cannot blacklist a server for the
// rest of the run.
const burstFloorIntervals = 4.0

// adapt runs every adaptation interval (paper: 1 s): if the congestion
// signal was raised during the window — reported demand exceeded some
// server's capacity — the controller drops its demand history so the
// proportional assignment re-converges from fresh measurements.
func (s *Strategy) adapt() {
	if !s.controller.TakeCongestionSignal() {
		return
	}
	s.adaptions++
	s.controller.ResetHistory()
}

// Adaptions returns how many times allocations were re-computed (test and
// reporting hook).
func (s *Strategy) Adaptions() int { return s.adaptions }

// Submit implements engine.Strategy: spend credits at the chosen replicas
// and send the requests there. By default each request is placed on the
// replica with the most headroom at that instant — balances deplete as the
// loop runs, so a large sub-task spreads over its group's replicas; with
// PinBatches the whole sub-task goes to one server.
func (s *Strategy) Submit(ctx *engine.Context, task *core.Task, subs []core.SubTask) {
	c := task.Client
	for i := range subs {
		sub := subs[i]
		reps := ctx.Topo.Replicas(sub.Group)
		if s.opts.PinBatches {
			best := s.pick(c, reps)
			s.spend(ctx, c, best, sub.Cost)
			for _, r := range sub.Requests {
				ctx.Send(r, best)
			}
			continue
		}
		for _, r := range sub.Requests {
			best := s.pick(c, reps)
			s.spend(ctx, c, best, r.EstCost)
			ctx.Send(r, best)
		}
	}
}

// pick returns the replica with the most headroom for client c.
func (s *Strategy) pick(c int, reps []cluster.ServerID) cluster.ServerID {
	best := reps[0]
	for _, cand := range reps[1:] {
		if s.better(c, cand, best) {
			best = cand
		}
	}
	return best
}

// spend debits the credit balance and records demand and outstanding work.
func (s *Strategy) spend(_ *engine.Context, c int, sv cluster.ServerID, cost int64) {
	s.balance[c][sv] -= float64(cost)
	s.demand[c][sv] += float64(cost)
	s.outstanding[c][sv] += cost
}

// better reports whether replica a is a better target than b for client c.
func (s *Strategy) better(c int, a, b cluster.ServerID) bool {
	// Effective headroom: credit balance minus work already in flight.
	ha := s.balance[c][a] - float64(s.outstanding[c][a])
	hb := s.balance[c][b] - float64(s.outstanding[c][b])
	if ha != hb {
		return ha > hb
	}
	return a < b
}

// OnResponse implements engine.Strategy.
func (s *Strategy) OnResponse(_ *engine.Context, req *core.Request, server cluster.ServerID, _ engine.Feedback) {
	s.outstanding[req.Client][server] -= req.EstCost
	if s.outstanding[req.Client][server] < 0 {
		s.outstanding[req.Client][server] = 0
	}
}
