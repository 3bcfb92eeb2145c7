package netstore

// Deterministic tests for the server's one run queue. The fault
// injector's stall gate parks the workers while batches queue up in a
// scripted arrival order, and the ServiceDelay hook observes the order
// they are then served in. No sleeps; every ordering point is a waitFor
// on injector or queue state.

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/wire"
)

// startSchedServer launches one loopback server with the given options
// and returns it with its address; values encode their priority as
// len(value)-1 so the ServiceDelay hook can observe service order. Tests
// that depend on priority order send prio seconds on the wire: the
// server ranks by receipt time + priority, and the gaps between
// stall-gated arrivals must not reorder them.
func startSchedServer(t *testing.T, opts ServerOptions, prios []int) (*Server, string) {
	t.Helper()
	srv := NewServer(kv.New(0), opts)
	t.Cleanup(srv.Close)
	for _, p := range prios {
		srv.Store().Set(fmt.Sprintf("k%d", p), make([]byte, p+1))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String()
}

// TestSchedTotalOrder: the queue's order is total per server, not per
// worker. Both workers park at the stall gate, four single-key batches
// arrive low priority first (40, 30, 20, 10 seconds), and after the
// release one worker is held in service so the other drains the queue
// alone: Priority must serve 10, 20, 30, 40 — every pop the minimum
// over ALL queued batches — and FIFO strictly the arrival order. A
// scheduler that splits batches over per-worker queues serves its own
// queue's pair first and fails both.
func TestSchedTotalOrder(t *testing.T) {
	arrival := []int64{40, 30, 20, 10}
	for _, tc := range []struct {
		disc Discipline
		want []int64
	}{
		{Priority, []int64{10, 20, 30, 40}},
		{FIFO, arrival},
	} {
		t.Run(tc.disc.String(), func(t *testing.T) {
			var mu sync.Mutex
			var order []int64
			hold := make(chan struct{})
			release := sync.OnceFunc(func() { close(hold) })
			defer release() // a held worker would deadlock the server's Close
			fi := NewFaultInjector()
			srv, addr := startSchedServer(t, ServerOptions{
				Workers:    2,
				Discipline: tc.disc,
				Fault:      fi,
				ServiceDelay: func(valueSize int64) time.Duration {
					id := valueSize - 1
					if id == 1 {
						<-hold
						return 0
					}
					mu.Lock()
					order = append(order, id)
					mu.Unlock()
					return 0
				},
			}, []int{0, 1, 10, 20, 30, 40})
			sc := dialConn(t, addr)
			issue := func(prio int64) chan struct{} {
				done := make(chan struct{})
				go func() {
					defer close(done)
					if _, err := sc.batch(bg, &wire.BatchReq{TaskID: 1, Priority: []int64{prio * int64(time.Second)}, Keys: []string{fmt.Sprintf("k%d", prio)}}); err != nil {
						t.Error(err)
					}
				}()
				return done
			}
			fi.StallNext(2)
			parked := []chan struct{}{issue(0), issue(1)}
			waitFor(t, 5*time.Second, "both workers parked in service", func() bool {
				return fi.StalledCount() == 2
			})
			var queued []chan struct{}
			for i, p := range arrival {
				queued = append(queued, issue(p))
				waitFor(t, 5*time.Second, "batch queued", func() bool { return srv.QueueLen() == i+1 })
			}
			fi.Release() // batch 1's worker now waits on hold; batch 0's drains the queue
			for _, d := range queued {
				<-d
			}
			release()
			for _, d := range parked {
				<-d
			}
			mu.Lock()
			defer mu.Unlock()
			// Batch 0 leaves the gate first, then the queue in order.
			if want := append([]int64{0}, tc.want...); !slices.Equal(order, want) {
				t.Fatalf("service order %v, want %v", order, want)
			}
		})
	}
}

// TestSchedPushPopAllocs: once the run queue's storage has grown,
// pushing a batch and popping it back allocates nothing under either
// discipline — the queue holds *workItem unboxed.
func TestSchedPushPopAllocs(t *testing.T) {
	for _, d := range []Discipline{Priority, FIFO} {
		t.Run(d.String(), func(t *testing.T) {
			s := newScheduler(d)
			items := make([]workItem, 64)
			for i := range items {
				items[i].priority = int64(i % 5)
			}
			popped := 0
			cycle := func() {
				s.pushAll(items)
				for range items {
					if _, _, ok := s.tryPop(); ok {
						popped++
					}
				}
			}
			cycle() // grow the queue's storage to the batch size
			if a := testing.AllocsPerRun(100, cycle); a != 0 {
				t.Fatalf("%.2f allocs per %d-item push+pop cycle, want 0", a, len(items))
			}
			if want := 102 * len(items); popped != want {
				t.Fatalf("popped %d items, want %d", popped, want)
			}
		})
	}
}

// TestSchedBudgetShedAtPop: a batch whose budget expired while it
// queued is shed at the pop with its Expired bit set, not served.
func TestSchedBudgetShedAtPop(t *testing.T) {
	fi := NewFaultInjector()
	srv, addr := startSchedServer(t, ServerOptions{Workers: 1, Fault: fi}, []int{0, 1})
	sc := dialConn(t, addr)
	issue := func(prio int64, budget int64) chan *wire.BatchResp {
		out := make(chan *wire.BatchResp, 1)
		go func() {
			resp, err := sc.batch(bg, &wire.BatchReq{TaskID: 1, Budget: budget, Priority: []int64{prio}, Keys: []string{fmt.Sprintf("k%d", prio)}})
			if err != nil {
				t.Error(err)
			}
			out <- resp
		}()
		return out
	}
	// The first batch parks the worker; the second carries a 1ns budget
	// it has already overrun by the time it is popped.
	fi.StallNext(1)
	first := issue(0, 0)
	waitFor(t, 5*time.Second, "first batch parked in service", func() bool {
		return fi.StalledCount() == 1
	})
	starved := issue(1, 1)
	waitFor(t, 5*time.Second, "second batch queued", func() bool { return srv.QueueLen() == 1 })
	fi.Release()
	<-first
	resp := <-starved
	if resp.Expired == nil || !resp.Expired[0] {
		t.Fatalf("over-budget key not shed: Expired = %v", resp.Expired)
	}
	if got := srv.Stats().Served; got != 1 {
		t.Fatalf("Served = %d, want 1 (the shed key must not count as served)", got)
	}
}

// TestSchedCloseDrainsQueued: Close while both workers are parked at
// the stall gate and batches sit in the queue must terminate — the
// drain-after-close pop serves or abandons everything and Close's
// worker Wait returns.
func TestSchedCloseDrainsQueued(t *testing.T) {
	fi := NewFaultInjector()
	srv, addr := startSchedServer(t, ServerOptions{Workers: 2, Fault: fi}, []int{0, 1, 2, 3, 4})
	sc := dialConn(t, addr)
	issue := func(prio int64) {
		go func() {
			// Errors are expected here: Close may tear the connection
			// down before (or while) the response is written.
			_, _ = sc.batch(bg, &wire.BatchReq{TaskID: 1, Priority: []int64{prio}, Keys: []string{fmt.Sprintf("k%d", prio)}})
		}()
	}
	fi.StallNext(2)
	issue(0)
	issue(1)
	waitFor(t, 5*time.Second, "both workers parked in service", func() bool {
		return fi.StalledCount() == 2
	})
	issue(2)
	issue(3)
	issue(4)
	waitFor(t, 5*time.Second, "three batches queued", func() bool { return srv.QueueLen() == 3 })
	closed := make(chan struct{})
	go func() {
		srv.Close() // releases the gate via the injector's shutdown
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with stalled workers and a non-empty queue")
	}
	if got := srv.Stats().Served; got != 5 {
		t.Fatalf("Served = %d, want 5 (work queued before Close is still served)", got)
	}
}
