// Package backend models the stateful storage servers of the data-store
// tier: each server has a fixed number of cores (the paper simulates "a
// concurrency level of 4 cores"), serves one request per core at a time,
// and draws the next request from a pluggable source — its own queue
// (FIFO or priority) for decentralized strategies, or shared global
// queues for the ideal work-pulling model.
package backend

import (
	"fmt"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/sim"
)

// Source supplies the next request a freed core should serve. Pull returns
// nil when no work is available for this server.
type Source interface {
	Pull(s *Server) *core.Request
}

// QueueSource adapts a queue.Discipline (the server's own queue) to the
// Source interface.
type QueueSource struct {
	Q queue.Discipline[*core.Request]
}

// Pull implements Source.
func (qs QueueSource) Pull(*Server) *core.Request {
	req, _ := qs.Q.Pop()
	return req
}

// Stats aggregates per-server accounting for utilization and queue-depth
// reporting.
type Stats struct {
	Served        uint64
	BusyNanos     int64
	QueueLenSum   uint64 // summed at each service start, for mean queue len
	MaxQueueLen   int
	TotalWaitNano int64 // time between server-side arrival and service start
}

// Server is one simulated storage server.
type Server struct {
	ID    cluster.ServerID
	Cores int

	eng    *sim.Engine
	source Source
	queue  queue.Discipline[*core.Request] // non-nil only in queue mode; same object as source's
	busy   int

	// OnComplete is invoked at service completion time, before the next
	// request starts. The engine wiring uses it to deliver responses.
	OnComplete func(req *core.Request, queueLenAtStart int, waited sim.Time)

	stats Stats
}

// New creates a server in queue mode with the given discipline.
func New(eng *sim.Engine, id cluster.ServerID, cores int, q queue.Discipline[*core.Request]) *Server {
	if cores <= 0 {
		panic(fmt.Sprintf("backend: server %d with %d cores", id, cores))
	}
	s := &Server{ID: id, Cores: cores, eng: eng, queue: q}
	s.source = QueueSource{Q: q}
	return s
}

// NewPulling creates a server in work-pulling mode: it has no queue of its
// own and fetches work from src (e.g. the ideal model's global queues).
// Producers stamping requests into the shared source must set
// req.EnqueuedAt and then Kick the eligible servers.
func NewPulling(eng *sim.Engine, id cluster.ServerID, cores int, src Source) *Server {
	if cores <= 0 {
		panic(fmt.Sprintf("backend: server %d with %d cores", id, cores))
	}
	return &Server{ID: id, Cores: cores, eng: eng, source: src}
}

// Enqueue delivers a request to a queue-mode server (call at simulated
// arrival time). It panics on pulling-mode servers — work arrives through
// their Source instead.
func (s *Server) Enqueue(req *core.Request) {
	s.EnqueueQuiet(req)
	s.Kick()
}

// EnqueueQuiet queues a request without starting service; callers that
// deliver several simultaneous requests (a batch arriving in one message)
// push them all and then Kick once, so the scheduler decides with the full
// batch visible.
func (s *Server) EnqueueQuiet(req *core.Request) {
	if s.queue == nil {
		panic("backend: Enqueue on a work-pulling server")
	}
	req.EnqueuedAt = s.eng.Now()
	s.queue.Push(req, req.Priority)
	if l := s.queue.Len(); l > s.stats.MaxQueueLen {
		s.stats.MaxQueueLen = l
	}
}

// Kick starts service on idle cores while work is available. Safe to call
// at any time.
func (s *Server) Kick() {
	for s.busy < s.Cores {
		req := s.source.Pull(s)
		if req == nil {
			return
		}
		s.start(req)
	}
}

func (s *Server) start(req *core.Request) {
	s.busy++
	now := s.eng.Now()
	waited := now - req.EnqueuedAt
	if waited < 0 {
		waited = 0
	}
	qlen := 0
	if s.queue != nil {
		qlen = s.queue.Len()
	}
	s.stats.QueueLenSum += uint64(qlen)
	s.stats.TotalWaitNano += waited
	svc := req.Service
	if svc < 1 {
		svc = 1
	}
	s.eng.After(svc, func() {
		s.busy--
		s.stats.Served++
		s.stats.BusyNanos += svc
		if s.OnComplete != nil {
			s.OnComplete(req, qlen, waited)
		}
		s.Kick()
	})
}

// QueueLen returns the current queue length (0 for pulling servers).
func (s *Server) QueueLen() int {
	if s.queue == nil {
		return 0
	}
	return s.queue.Len()
}

// Busy returns the number of cores currently serving.
func (s *Server) Busy() int { return s.busy }

// Stats returns a copy of the server's counters.
func (s *Server) Stats() Stats { return s.stats }

// Utilization returns the fraction of core-time spent serving over the
// given horizon.
func (s *Server) Utilization(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	return float64(s.stats.BusyNanos) / float64(int64(s.Cores)*horizon)
}
