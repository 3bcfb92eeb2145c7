// Package model implements the paper's ideal strategy ("referred to as
// model"): servers utilize a work-pulling mechanism to fetch requests from
// a single global priority-based queue shared by all clients. The paper
// notes this is unrealizable — it assumes perfect knowledge of global
// state — and uses it as the lower bound that the credits realization is
// measured against (within 38% at the 99th percentile).
//
// Implementation: the global queue is maintained as one priority queue per
// replica group (a request can only be served by its group's replicas, so
// this partitioned form is exactly equivalent to one global queue with a
// "can this server serve it?" filter, while keeping Pull O(R log n)).
// Requests still pay the client→server network latency before becoming
// globally visible, and responses pay the return latency — the idealization
// is the shared queue, not a zero-latency network.
package model

import (
	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/queue"
)

// Strategy is the ideal global-queue work-pulling strategy.
type Strategy struct {
	assigner core.Assigner
	groups   []*queue.Priority[*core.Request]
	ctx      *engine.Context
}

// New returns a model strategy with the given priority-assignment
// algorithm (the paper evaluates EqualMax-Model and UnifIncr-Model).
func New(a core.Assigner) *Strategy {
	return &Strategy{assigner: a}
}

// Name implements engine.Strategy.
func (s *Strategy) Name() string { return s.assigner.Name() + "-Model" }

// Assigner implements engine.Strategy.
func (s *Strategy) Assigner() core.Assigner { return s.assigner }

// source adapts the per-group queues to backend.Source for one server:
// a freed core pulls the globally best (lowest priority value, FIFO
// tie-break) request among the groups the server replicates.
type source struct {
	s *Strategy
}

// Pull implements backend.Source.
func (src source) Pull(srv *backend.Server) *core.Request {
	var best *queue.Priority[*core.Request]
	var bestPrio int64
	for _, g := range src.s.ctx.Topo.Groups(srv.ID) {
		q := src.s.groups[g]
		prio, ok := q.PeekPriority()
		if !ok {
			continue
		}
		if best == nil || prio < bestPrio {
			best, bestPrio = q, prio
		}
	}
	if best == nil {
		return nil
	}
	req, _ := best.Pop()
	return req
}

// BuildServers implements engine.Strategy: work-pulling servers over the
// shared group queues.
func (s *Strategy) BuildServers(ctx *engine.Context) []*backend.Server {
	s.ctx = ctx
	s.groups = make([]*queue.Priority[*core.Request], ctx.Topo.NumPartitions())
	for i := range s.groups {
		s.groups[i] = queue.NewPriority[*core.Request]()
	}
	servers := make([]*backend.Server, ctx.Cfg.Servers)
	for i := range servers {
		servers[i] = backend.NewPulling(ctx.Eng, cluster.ServerID(i), ctx.Cfg.Cores, source{s})
	}
	return servers
}

// Setup implements engine.Strategy (no periodic processes).
func (s *Strategy) Setup(*engine.Context) {}

// Submit implements engine.Strategy: after the one-way network latency,
// each sub-task's requests enter the shared queue of their replica group
// and the group's replicas are kicked.
func (s *Strategy) Submit(ctx *engine.Context, task *core.Task, subs []core.SubTask) {
	for i := range subs {
		sub := subs[i]
		ctx.Eng.After(ctx.Cfg.NetOneWay, func() {
			for _, r := range sub.Requests {
				r.EnqueuedAt = ctx.Eng.Now()
				s.groups[sub.Group].Push(r, r.Priority)
			}
			for _, sid := range ctx.Topo.Replicas(sub.Group) {
				ctx.Servers[sid].Kick()
			}
		})
	}
}

// OnResponse implements engine.Strategy (the model needs no feedback).
func (s *Strategy) OnResponse(*engine.Context, *core.Request, cluster.ServerID, engine.Feedback) {
}

// QueuedRequests returns the number of requests currently waiting in the
// shared queues (for tests).
func (s *Strategy) QueuedRequests() int {
	n := 0
	for _, q := range s.groups {
		n += q.Len()
	}
	return n
}
