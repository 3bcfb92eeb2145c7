package backend

import (
	"testing"

	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/queue"
	"github.com/brb-repro/brb/internal/sim"
)

func req(id uint64, service, prio int64) *core.Request {
	return &core.Request{ID: id, Service: service, Priority: prio}
}

func TestSingleCoreSerializes(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 1, queue.NewFIFO[*core.Request]())
	var done []sim.Time
	s.OnComplete = func(r *core.Request, _ int, _ sim.Time) {
		done = append(done, eng.Now())
	}
	eng.At(0, func() {
		s.Enqueue(req(1, 100, 0))
		s.Enqueue(req(2, 100, 0))
		s.Enqueue(req(3, 100, 0))
	})
	eng.Run()
	want := []sim.Time{100, 200, 300}
	if len(done) != 3 {
		t.Fatalf("completed %d requests", len(done))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion times %v, want %v", done, want)
		}
	}
}

func TestMultiCoreParallel(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 4, queue.NewFIFO[*core.Request]())
	var done []sim.Time
	s.OnComplete = func(r *core.Request, _ int, _ sim.Time) { done = append(done, eng.Now()) }
	eng.At(0, func() {
		for i := uint64(1); i <= 4; i++ {
			s.Enqueue(req(i, 100, 0))
		}
	})
	eng.Run()
	for _, d := range done {
		if d != 100 {
			t.Fatalf("4 cores should finish 4 requests at t=100, got %v", done)
		}
	}
}

func TestPriorityOrderOnServer(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 1, queue.NewPriority[*core.Request]())
	var order []uint64
	s.OnComplete = func(r *core.Request, _ int, _ sim.Time) { order = append(order, r.ID) }
	eng.At(0, func() {
		s.Enqueue(req(1, 100, 50)) // starts immediately (core idle)
		s.Enqueue(req(2, 100, 30))
		s.Enqueue(req(3, 100, 10))
		s.Enqueue(req(4, 100, 20))
	})
	eng.Run()
	want := []uint64{1, 3, 4, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 1, queue.NewFIFO[*core.Request]())
	var waits []sim.Time
	s.OnComplete = func(r *core.Request, _ int, w sim.Time) { waits = append(waits, w) }
	eng.At(0, func() {
		s.Enqueue(req(1, 100, 0))
		s.Enqueue(req(2, 100, 0)) // waits 100
	})
	eng.Run()
	if waits[0] != 0 || waits[1] != 100 {
		t.Fatalf("waits = %v, want [0 100]", waits)
	}
}

func TestUtilization(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 2, queue.NewFIFO[*core.Request]())
	s.OnComplete = func(*core.Request, int, sim.Time) {}
	eng.At(0, func() {
		s.Enqueue(req(1, 500, 0))
		s.Enqueue(req(2, 500, 0))
	})
	eng.Run()
	// 1000ns of busy core-time over a 500ns horizon on 2 cores = 100%.
	if u := s.Utilization(500); u != 1.0 {
		t.Fatalf("utilization = %v, want 1.0", u)
	}
	if s.Stats().Served != 2 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
}

func TestZeroServiceClamped(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 1, queue.NewFIFO[*core.Request]())
	fired := false
	s.OnComplete = func(*core.Request, int, sim.Time) { fired = true }
	eng.At(0, func() { s.Enqueue(req(1, 0, 0)) })
	eng.Run()
	if !fired {
		t.Fatal("zero-service request never completed")
	}
}

// pullSource hands out requests from a shared slice — a miniature version
// of the ideal model's global queue.
type pullSource struct {
	pending []*core.Request
}

func (p *pullSource) Pull(*Server) *core.Request {
	if len(p.pending) == 0 {
		return nil
	}
	r := p.pending[0]
	p.pending = p.pending[1:]
	return r
}

func TestWorkPullingMode(t *testing.T) {
	var eng sim.Engine
	src := &pullSource{}
	s1 := NewPulling(&eng, 1, 1, src)
	s2 := NewPulling(&eng, 2, 1, src)
	var count int
	done := map[uint64]sim.Time{}
	complete := func(r *core.Request, _ int, _ sim.Time) {
		count++
		done[r.ID] = eng.Now()
	}
	s1.OnComplete = complete
	s2.OnComplete = complete
	eng.At(0, func() {
		src.pending = []*core.Request{req(1, 100, 0), req(2, 100, 0), req(3, 100, 0)}
		s1.Kick()
		s2.Kick()
	})
	eng.Run()
	if count != 3 {
		t.Fatalf("served %d, want 3", count)
	}
	// Two in parallel at t=100, third at t=200 on whichever freed first.
	if done[1] != 100 || done[2] != 100 || done[3] != 200 {
		t.Fatalf("completions = %v", done)
	}
}

func TestEnqueueOnPullingPanics(t *testing.T) {
	var eng sim.Engine
	s := NewPulling(&eng, 0, 1, &pullSource{})
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on pulling server did not panic")
		}
	}()
	s.Enqueue(req(1, 10, 0))
}

func TestZeroCoresPanics(t *testing.T) {
	var eng sim.Engine
	defer func() {
		if recover() == nil {
			t.Fatal("0 cores did not panic")
		}
	}()
	New(&eng, 0, 0, queue.NewFIFO[*core.Request]())
}

func TestMaxQueueLenTracked(t *testing.T) {
	var eng sim.Engine
	s := New(&eng, 0, 1, queue.NewFIFO[*core.Request]())
	s.OnComplete = func(*core.Request, int, sim.Time) {}
	eng.At(0, func() {
		for i := uint64(0); i < 10; i++ {
			s.Enqueue(req(i, 100, 0))
		}
	})
	eng.Run()
	// First starts immediately; max queue observed is 9.
	if got := s.Stats().MaxQueueLen; got != 9 {
		t.Fatalf("MaxQueueLen = %d, want 9", got)
	}
}
