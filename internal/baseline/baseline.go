// Package baseline provides task-oblivious and simple decentralized
// scheduling strategies: C3, the paper's state-of-the-art comparator
// (c3.go), and per-sub-task replica selection by random choice,
// round-robin, or least-outstanding-requests, over FIFO or priority
// servers. These are the comparison points of Figure 1 ("task-oblivious
// schedule"), Figure 2 and the A5 variants ablation, and the generic
// decentralized skeleton other strategies build on.
package baseline

import (
	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/queue"
)

// Selector picks a replica server for a sub-task. Implementations may keep
// per-client state; Selectors are confined to a single (single-threaded)
// simulation run.
type Selector interface {
	Name() string
	// Select returns the server that should serve the sub-task, among
	// ctx.Topo.Replicas(sub.Group).
	Select(ctx *engine.Context, client int, sub core.SubTask) cluster.ServerID
	// OnResponse lets stateful selectors (least-outstanding) observe
	// completions.
	OnResponse(ctx *engine.Context, req *core.Request, server cluster.ServerID)
}

// Random selects a uniformly random replica.
type Random struct{}

// Name implements Selector.
func (Random) Name() string { return "Random" }

// Select implements Selector.
func (Random) Select(ctx *engine.Context, _ int, sub core.SubTask) cluster.ServerID {
	reps := ctx.Topo.Replicas(sub.Group)
	return reps[ctx.RNG.Intn(len(reps))]
}

// OnResponse implements Selector.
func (Random) OnResponse(*engine.Context, *core.Request, cluster.ServerID) {}

// RoundRobin cycles through a group's replicas per client.
type RoundRobin struct {
	next map[int64]int // (client<<32|group) -> counter
}

// NewRoundRobin returns a round-robin selector.
func NewRoundRobin() *RoundRobin { return &RoundRobin{next: make(map[int64]int)} }

// Name implements Selector.
func (*RoundRobin) Name() string { return "RoundRobin" }

// Select implements Selector.
func (rr *RoundRobin) Select(ctx *engine.Context, client int, sub core.SubTask) cluster.ServerID {
	key := int64(client)<<32 | int64(sub.Group)
	reps := ctx.Topo.Replicas(sub.Group)
	i := rr.next[key] % len(reps)
	rr.next[key]++
	return reps[i]
}

// OnResponse implements Selector.
func (*RoundRobin) OnResponse(*engine.Context, *core.Request, cluster.ServerID) {}

// LeastOutstanding picks the replica with the least client-local
// outstanding estimated work — the classic "least outstanding requests"
// load-balancing heuristic, here weighted by forecasted cost.
type LeastOutstanding struct {
	// outstanding[client][server] is the estimated unserved work (ns)
	// this client has in flight to each server.
	outstanding [][]int64
}

// NewLeastOutstanding returns a least-outstanding selector.
func NewLeastOutstanding() *LeastOutstanding { return &LeastOutstanding{} }

// Name implements Selector.
func (*LeastOutstanding) Name() string { return "LeastOutstanding" }

func (lo *LeastOutstanding) ensure(ctx *engine.Context) {
	if lo.outstanding == nil {
		lo.outstanding = make([][]int64, ctx.Cfg.Clients)
		for i := range lo.outstanding {
			lo.outstanding[i] = make([]int64, ctx.Cfg.Servers)
		}
	}
}

// Select implements Selector.
func (lo *LeastOutstanding) Select(ctx *engine.Context, client int, sub core.SubTask) cluster.ServerID {
	lo.ensure(ctx)
	reps := ctx.Topo.Replicas(sub.Group)
	best := reps[0]
	for _, s := range reps[1:] {
		if lo.outstanding[client][s] < lo.outstanding[client][best] {
			best = s
		}
	}
	lo.outstanding[client][best] += sub.Cost
	return best
}

// OnResponse implements Selector.
func (lo *LeastOutstanding) OnResponse(ctx *engine.Context, req *core.Request, server cluster.ServerID) {
	lo.ensure(ctx)
	lo.outstanding[req.Client][server] -= req.EstCost
	if lo.outstanding[req.Client][server] < 0 {
		lo.outstanding[req.Client][server] = 0
	}
}

// Strategy is a generic decentralized scheduling strategy: an assigner
// stamps priorities, a selector places each sub-task on one replica, and
// servers run the given queue discipline. All requests of a sub-task go to
// the same server (they form the batch the paper's task model implies).
type Strategy struct {
	Assign   core.Assigner
	Selector Selector
	Queues   queue.Factory[*core.Request]
	// Label overrides the derived name when non-empty.
	Label string
}

// New builds a baseline strategy: task-oblivious FIFO with the given
// selector (the configuration Figure 1 calls "task-oblivious schedule").
func New(sel Selector) *Strategy {
	return &Strategy{Assign: core.Oblivious{}, Selector: sel, Queues: queue.FIFOFactory[*core.Request]}
}

// NewPriority builds a decentralized priority-queue strategy with the
// given assigner and selector — BRB scheduling without the credits
// controller, used in ablations to isolate the controller's contribution.
func NewPriority(a core.Assigner, sel Selector) *Strategy {
	return &Strategy{Assign: a, Selector: sel, Queues: queue.PriorityFactory[*core.Request]}
}

// Name implements engine.Strategy.
func (s *Strategy) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Assign.Name() + "-" + s.Selector.Name()
}

// Assigner implements engine.Strategy.
func (s *Strategy) Assigner() core.Assigner { return s.Assign }

// BuildServers implements engine.Strategy.
func (s *Strategy) BuildServers(ctx *engine.Context) []*backend.Server {
	return engine.QueueServers(ctx, s.Queues)
}

// Setup implements engine.Strategy.
func (s *Strategy) Setup(*engine.Context) {}

// Submit implements engine.Strategy.
func (s *Strategy) Submit(ctx *engine.Context, task *core.Task, subs []core.SubTask) {
	for i := range subs {
		target := s.Selector.Select(ctx, task.Client, subs[i])
		for _, r := range subs[i].Requests {
			ctx.Send(r, target)
		}
	}
}

// OnResponse implements engine.Strategy.
func (s *Strategy) OnResponse(ctx *engine.Context, req *core.Request, server cluster.ServerID, _ engine.Feedback) {
	s.Selector.OnResponse(ctx, req, server)
}
