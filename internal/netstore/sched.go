package netstore

import (
	"sync"
	"sync/atomic"

	"github.com/brb-repro/brb/internal/queue"
)

// scheduler is the server's run queue: ONE queue per server — a
// queue.Priority stable min-heap or a queue.FIFO ring, chosen once by
// Discipline, behind one lock — drained by every worker. This is the
// pooled M/G/k queue the paper's server model assumes; the Priority rank
// (receipt time + forecast, a virtual finish time) only means something
// inside one ordered queue.
//
// Ordering guarantee, stated here once for the whole package: the
// server serves queued keys in a per-server TOTAL order. Under Priority
// that order is (rank, arrival seq) — every worker pops the global
// minimum, so a cheap key never waits behind a dearer one that some
// other worker's private queue happened to hold — and under FIFO it is
// arrival seq alone. A batch's items enter under a single lock hold, so
// priority decisions see the whole batch at once (the
// simultaneous-arrival semantics of Figure 1) and no other batch's keys
// interleave with its arrival seqs.
type scheduler struct {
	mu sync.Mutex
	q  queue.Discipline[*workItem] // guarded by mu

	// pending is the queued-item count. It changes only under mu,
	// together with the queue (pushAll adds after its pushes, tryPop
	// subtracts at its pop), so it equals the queue's length whenever mu
	// is free: a nonzero read means an item is poppable or about to be,
	// never that a worker should spin on an empty queue while a pusher
	// waits for the lock. It doubles as QueueLen telemetry.
	pending atomic.Int64

	// Idle handshake. Workers that find the queue empty park on
	// idleCond; pushers wake them only when idlers says someone is (or
	// is about to be) parked, so the loaded hot path never touches
	// idleMu. The handshake is Dekker-shaped: the parking worker
	// publishes idlers before reading pending (under idleMu, right
	// before its Wait), the pusher publishes pending before reading
	// idlers, and Go atomics are sequentially consistent — so at least
	// one side always sees the other. A pusher that sees an idler
	// signals under idleMu, which the parking worker holds from its
	// pending read to its Wait, so the signal cannot fall between them.
	//
	// One wake-up per push, not a broadcast: the woken worker pops, and a
	// pop that leaves items queued wakes the next idler in turn. Every
	// queued item is thus either being popped by an awake worker or
	// behind one — a worker parks only after reading pending == 0.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	idlers   atomic.Int32
	closed   bool // guarded by idleMu
}

func newScheduler(d Discipline) *scheduler {
	s := &scheduler{q: queue.NewPriority[*workItem]()}
	if d == FIFO {
		s.q = queue.NewFIFO[*workItem]()
	}
	s.idleCond = sync.NewCond(&s.idleMu)
	return s
}

// pushAll enqueues a batch's work-item slab under one lock hold and
// wakes one parked worker; the scheduler holds pointers into the slab
// until each item is popped.
func (s *scheduler) pushAll(items []workItem) {
	s.mu.Lock()
	for i := range items {
		s.q.Push(&items[i], items[i].priority)
	}
	s.pending.Add(int64(len(items)))
	s.mu.Unlock()
	s.wakeOne()
}

// wakeOne signals one parked worker, if any.
func (s *scheduler) wakeOne() {
	if s.idlers.Load() != 0 {
		s.idleMu.Lock()
		s.idleCond.Signal()
		s.idleMu.Unlock()
	}
}

// pop blocks until an item is available, returning the queue's minimum
// and the remaining queue length, or ok=false once the scheduler is
// closed and drained. A pop that leaves items queued wakes the next
// parked worker.
func (s *scheduler) pop() (*workItem, int, bool) {
	for {
		if it, qlen, ok := s.tryPop(); ok {
			if qlen > 0 {
				s.wakeOne()
			}
			return it, qlen, true
		}
		s.idleMu.Lock()
		if s.closed {
			s.idleMu.Unlock()
			// Drain: anything pushed before (or racing) close is still
			// served; only an empty pop after close exits.
			if it, qlen, ok := s.tryPop(); ok {
				return it, qlen, true
			}
			return nil, 0, false
		}
		s.idlers.Add(1)
		if s.pending.Load() == 0 {
			s.idleCond.Wait()
		}
		s.idlers.Add(-1)
		s.idleMu.Unlock()
	}
}

func (s *scheduler) tryPop() (*workItem, int, bool) {
	s.mu.Lock()
	it, ok := s.q.Pop()
	if !ok {
		s.mu.Unlock()
		return nil, 0, false
	}
	qlen := int(s.pending.Add(-1))
	s.mu.Unlock()
	return it, qlen, true
}

func (s *scheduler) len() int {
	if n := s.pending.Load(); n > 0 {
		return int(n)
	}
	return 0
}

func (s *scheduler) close() {
	s.idleMu.Lock()
	s.closed = true
	s.idleMu.Unlock()
	s.idleCond.Broadcast()
}
