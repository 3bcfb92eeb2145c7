package baseline

import (
	"math"

	"github.com/brb-repro/brb/internal/backend"
	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/sim"
)

// C3Options tune the C3 implementation; zero values take the published
// defaults.
type C3Options struct {
	// Alpha is the EWMA smoothing factor (default 0.9 — C3 smooths
	// aggressively).
	Alpha float64
	// RateInterval is the rate-control accounting window δ (default
	// 20 ms, as in the C3 paper).
	RateInterval sim.Time
	// Beta is the multiplicative decrease factor (default 0.2).
	Beta float64
	// CubicC is the cubic growth constant (default 0.000004 as in
	// CUBIC/C3).
	CubicC float64
	// SMax caps the sending rate in requests per interval (default 200).
	SMax float64
}

func (o C3Options) withDefaults() C3Options {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.9
	}
	if o.RateInterval <= 0 {
		o.RateInterval = 20 * sim.Millisecond
	}
	if o.Beta <= 0 {
		o.Beta = 0.2
	}
	if o.CubicC <= 0 {
		o.CubicC = 0.000004
	}
	if o.SMax <= 0 {
		o.SMax = 200
	}
	return o
}

// replicaState is one client's view of one server.
type replicaState struct {
	// EWMAs, all in nanoseconds (mu is service time).
	respEWMA float64
	svcEWMA  float64
	qEWMA    float64
	outstand int
	haveData bool

	// Cubic rate control.
	rateCap      float64  // sends allowed per RateInterval
	sentThisInt  int      // sends in the current interval
	recvThisInt  int      // receives in the current interval
	lastDecrease sim.Time // time of last multiplicative decrease
	capAtDecr    float64  // rateCap at the last decrease
}

// C3 reimplements the C3 adaptive replica-selection system (Suresh,
// Canini, Schmid, Feldmann — "C3: Cutting Tail Latency in Cloud Data
// Stores via Adaptive Replica Selection", NSDI 2015), the
// state-of-the-art comparator in the paper's Figure 2.
//
// C3 is task-oblivious. Each client ranks a sub-task's replicas with
// c3.Score over feedback piggybacked on responses — EWMAs of response
// time, service time, and server queue length — with a cubic penalty on
// the estimated queue depth. C3 additionally applies cubic client-side
// rate control per (client, server): the sending-rate cap grows cubically
// while the server keeps up and decreases multiplicatively when it does
// not. Servers process FIFO, as in the Cassandra deployment C3 targets.
type C3 struct {
	opts C3Options
	ctx  *engine.Context
	// state[client][server]
	state [][]replicaState
	// deferred holds sub-task batches deferred by rate control, drained
	// each rate interval (C3's backpressure).
	deferred []deferredBatch
	defers   int
}

// deferredBatch is a rate-limited sub-task awaiting the next window. The
// system model (paper §2) batches all of a task's requests for one replica
// group into a single request to one server, so C3's unit of selection is
// the sub-task batch.
type deferredBatch struct {
	client   int
	requests []*core.Request
}

// NewC3 returns a C3 strategy.
func NewC3(opts C3Options) *C3 {
	return &C3{opts: opts.withDefaults()}
}

// Name implements engine.Strategy.
func (s *C3) Name() string { return "C3" }

// Assigner implements engine.Strategy: C3 is task-oblivious.
func (s *C3) Assigner() core.Assigner { return core.Oblivious{} }

// BuildServers implements engine.Strategy: FIFO servers, as in Cassandra.
func (s *C3) BuildServers(ctx *engine.Context) []*backend.Server {
	return engine.QueueServers(ctx, queue.FIFOFactory[*core.Request])
}

// Setup implements engine.Strategy.
func (s *C3) Setup(ctx *engine.Context) {
	s.ctx = ctx
	s.state = make([][]replicaState, ctx.Cfg.Clients)
	meanSvc := 1e9 / ctx.Cfg.ServiceRate
	for c := range s.state {
		s.state[c] = make([]replicaState, ctx.Cfg.Servers)
		for sv := range s.state[c] {
			st := &s.state[c][sv]
			st.rateCap = s.opts.SMax / 4 // permissive start; converges fast
			st.svcEWMA = meanSvc
			st.respEWMA = meanSvc + 2*float64(ctx.Cfg.NetOneWay)
		}
	}
	ctx.Eng.Every(s.opts.RateInterval, s.tickRate)
}

// tickRate closes a rate-control window: grow or shrink each replica's
// sending cap per CUBIC, reset counters, and flush deferred requests.
func (s *C3) tickRate() {
	now := s.ctx.Eng.Now()
	for c := range s.state {
		for sv := range s.state[c] {
			st := &s.state[c][sv]
			if st.sentThisInt > st.recvThisInt && st.sentThisInt > int(st.rateCap/2) {
				// Server falling behind: multiplicative decrease.
				st.capAtDecr = st.rateCap
				st.rateCap *= 1 - s.opts.Beta
				if st.rateCap < 1 {
					st.rateCap = 1
				}
				st.lastDecrease = now
			} else {
				// Cubic growth toward (and past) the last plateau.
				t := float64(now-st.lastDecrease) / 1e6 // ms since decrease
				k := math.Cbrt(st.capAtDecr * s.opts.Beta / s.opts.CubicC)
				w := s.opts.CubicC*math.Pow(t-k, 3) + st.capAtDecr
				if w > st.rateCap {
					st.rateCap = w
				}
				if st.rateCap > s.opts.SMax {
					st.rateCap = s.opts.SMax
				}
			}
			st.sentThisInt = 0
			st.recvThisInt = 0
		}
	}
	// Drain deferred batches through normal selection.
	pend := s.deferred
	s.deferred = nil
	for _, d := range pend {
		s.send(d.client, d.requests)
	}
}

// score computes C3's replica ranking function for client c and server sv
// via the shared Score formula; concurrency compensation uses the server
// core count (a server with m cores drains m at once).
func (s *C3) score(c int, sv int) float64 {
	st := &s.state[c][sv]
	return c3.Score(st.respEWMA, st.svcEWMA, st.qEWMA, st.outstand,
		float64(s.ctx.Cfg.Clients), float64(s.ctx.Cfg.Cores))
}

// Submit implements engine.Strategy: C3 ranks replicas per sub-task batch
// (the system model sends all requests for one replica group as a single
// batched request) but is task-unaware — batches are independent.
func (s *C3) Submit(ctx *engine.Context, task *core.Task, subs []core.SubTask) {
	for i := range subs {
		s.send(task.Client, subs[i].Requests)
	}
}

// send ranks replicas for a batch and dispatches it (or defers it under
// rate limiting). All requests of a batch share a replica group.
func (s *C3) send(c int, batch []*core.Request) {
	if len(batch) == 0 {
		return
	}
	reps := s.ctx.Topo.Replicas(batch[0].Group)
	// Rank by score ascending.
	best := cluster.ServerID(-1)
	var bestScore float64
	secondChoice := cluster.ServerID(-1)
	var secondScore float64
	for _, sv := range reps {
		sc := s.score(c, int(sv))
		if best < 0 || sc < bestScore {
			secondChoice, secondScore = best, bestScore
			best, bestScore = sv, sc
		} else if secondChoice < 0 || sc < secondScore {
			secondChoice, secondScore = sv, sc
		}
	}
	// Rate control: try best, then the runner-up; otherwise defer to the
	// next window (C3 backpressures at the client).
	for _, sv := range []cluster.ServerID{best, secondChoice} {
		if sv < 0 {
			continue
		}
		st := &s.state[c][sv]
		if float64(st.sentThisInt) < st.rateCap {
			st.sentThisInt += len(batch)
			st.outstand += len(batch)
			for _, r := range batch {
				s.ctx.Send(r, sv)
			}
			return
		}
	}
	s.defers++
	s.deferred = append(s.deferred, deferredBatch{client: c, requests: batch})
}

// OnResponse implements engine.Strategy: fold the piggybacked feedback
// into the EWMAs.
func (s *C3) OnResponse(ctx *engine.Context, req *core.Request, server cluster.ServerID, fb engine.Feedback) {
	st := &s.state[req.Client][server]
	st.outstand--
	if st.outstand < 0 {
		st.outstand = 0
	}
	st.recvThisInt++
	a := s.opts.Alpha
	resp := float64(fb.Waited + fb.Service + 2*ctx.Cfg.NetOneWay)
	if !st.haveData {
		st.respEWMA, st.svcEWMA, st.qEWMA = resp, float64(fb.Service), float64(fb.QueueLen)
		st.haveData = true
		return
	}
	st.respEWMA = a*st.respEWMA + (1-a)*resp
	st.svcEWMA = a*st.svcEWMA + (1-a)*float64(fb.Service)
	st.qEWMA = a*st.qEWMA + (1-a)*float64(fb.QueueLen)
}

// Defers returns how many sends were deferred by rate control (test hook).
func (s *C3) Defers() int { return s.defers }
