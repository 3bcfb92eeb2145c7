package netstore

// Deterministic tests for the per-core sharded scheduler (PR 9). The
// scheduler's round-robin batch placement is pinned — push k lands on
// shard (k-1) mod N — so a single-worker server plus the fault
// injector's stall gate turns work-stealing into a scripted sequence:
// the tests know exactly which shard every batch sits on and therefore
// exactly which pops are steals. No sleeps; every ordering point is a
// waitFor on injector or queue state.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/wire"
)

// startSchedServer launches one loopback server with the given options
// and a connected flat client; values encode their priority as
// len(value)-1 so the ServiceDelay hook can observe service order. Tests
// that depend on priority order send prio seconds on the wire: the
// server ranks by receipt time + priority, and the gaps between
// stall-gated arrivals must not reorder them.
func startSchedServer(t *testing.T, opts ServerOptions, prios []int) (*Server, *Client) {
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
	topo := cluster.MustNew(cluster.Config{Servers: 1, Replication: 1})
	c, err := Dial([]string{ln.Addr().String()}, ClientOptions{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return srv, c
}

// TestSchedStealStarvationFreedom: a lone worker homed on shard 0 must
// serve batches that round-robin placement parked on shards it does not
// own. Four sequential single-key batches land on shards 0,1,2,3; the
// last three can only be served by stealing.
func TestSchedStealStarvationFreedom(t *testing.T) {
	srv, c := startSchedServer(t, ServerOptions{Workers: 1, SchedShards: 4}, []int{0, 1, 2, 3})
	for _, p := range []int{0, 1, 2, 3} {
		resp, err := c.conns[0].batch(bg, &wire.BatchReq{TaskID: 1, Priority: []int64{int64(p)}, Keys: []string{fmt.Sprintf("k%d", p)}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Found[0] {
			t.Fatalf("k%d not found", p)
		}
	}
	if got := srv.SchedSteals(); got != 3 {
		t.Fatalf("SchedSteals = %d, want 3 (batches 2..4 sat on non-home shards)", got)
	}
}

// TestSchedPerShardPriorityOrder: ordering is per shard, not global.
// With two shards and a single stalled worker, batches with priorities
// 20, 30, 10 (seconds) are parked so that 30 sits alone on the worker's
// home shard while 20 and 10 share the other: the release order is then
// home-first (30), followed by the steals in priority order (10, 20),
// against their arrival order — a sequence the old global queue could
// never produce.
func TestSchedPerShardPriorityOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int64
	fi := NewFaultInjector()
	srv, c := startSchedServer(t, ServerOptions{
		Workers:     1,
		SchedShards: 2,
		Discipline:  Priority,
		Fault:       fi,
		ServiceDelay: func(valueSize int64) time.Duration {
			mu.Lock()
			order = append(order, valueSize-1)
			mu.Unlock()
			return 0
		},
	}, []int{0, 10, 20, 30})
	issue := func(prio int64) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := c.conns[0].batch(bg, &wire.BatchReq{TaskID: 1, Priority: []int64{prio * int64(time.Second)}, Keys: []string{fmt.Sprintf("k%d", prio)}}); err != nil {
				t.Error(err)
			}
		}()
		return done
	}
	// Push 1 (shard 0): parks the lone worker at the injector gate.
	fi.StallNext(1)
	first := issue(0)
	waitFor(t, 5*time.Second, "first batch parked in service", func() bool {
		return fi.StalledCount() == 1
	})
	// Push 2 (shard 1): prio 20. Push 3 (shard 0): prio 30. Push 4
	// (shard 1): prio 10. QueueLen waits pin the round-robin sequence.
	d1 := issue(20)
	waitFor(t, 5*time.Second, "second batch queued", func() bool { return srv.QueueLen() == 1 })
	d2 := issue(30)
	waitFor(t, 5*time.Second, "third batch queued", func() bool { return srv.QueueLen() == 2 })
	d3 := issue(10)
	waitFor(t, 5*time.Second, "fourth batch queued", func() bool { return srv.QueueLen() == 3 })
	fi.Release()
	<-first
	<-d1
	<-d2
	<-d3
	mu.Lock()
	defer mu.Unlock()
	// Home shard first (30), then shard 1 by priority (10 before 20).
	want := []int64{0, 30, 10, 20}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
	if got := srv.SchedSteals(); got != 2 {
		t.Fatalf("SchedSteals = %d, want 2 (the two shard-1 batches)", got)
	}
}

// TestSchedBudgetShedAfterSteal: deadline shedding survives the steal
// path. A batch whose budget expired while it queued on a foreign shard
// is shed with its Expired bit set, exactly as the global queue shed it.
func TestSchedBudgetShedAfterSteal(t *testing.T) {
	fi := NewFaultInjector()
	srv, c := startSchedServer(t, ServerOptions{Workers: 1, SchedShards: 2, Fault: fi}, []int{0, 1})
	issue := func(prio int64, budget int64) chan *wire.BatchResp {
		out := make(chan *wire.BatchResp, 1)
		go func() {
			resp, err := c.conns[0].batch(bg, &wire.BatchReq{TaskID: 1, Budget: budget, Priority: []int64{prio}, Keys: []string{fmt.Sprintf("k%d", prio)}})
			if err != nil {
				t.Error(err)
			}
			out <- resp
		}()
		return out
	}
	// Push 1 (shard 0) parks the worker; push 2 (shard 1) carries a
	// 1ns budget it has already overrun by the time it is stolen.
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
		t.Fatalf("stolen over-budget key not shed: Expired = %v", resp.Expired)
	}
	if got := srv.SchedSteals(); got != 1 {
		t.Fatalf("SchedSteals = %d, want 1", got)
	}
}

// TestSchedCloseDuringSteal: Close while workers are parked at the
// stall gate and batches sit on multiple shards must terminate — the
// drain-after-close rescan serves or abandons everything and Close's
// worker Wait returns.
func TestSchedCloseDuringSteal(t *testing.T) {
	fi := NewFaultInjector()
	srv, c := startSchedServer(t, ServerOptions{Workers: 2, SchedShards: 4, Fault: fi}, []int{0, 1, 2, 3, 4})
	issue := func(prio int64) {
		go func() {
			// Errors are expected here: Close may tear the connection
			// down before (or while) the response is written.
			_, _ = c.conns[0].batch(bg, &wire.BatchReq{TaskID: 1, Priority: []int64{prio}, Keys: []string{fmt.Sprintf("k%d", prio)}})
		}()
	}
	fi.StallNext(2)
	issue(0)
	issue(1)
	waitFor(t, 5*time.Second, "both workers parked in service", func() bool {
		return fi.StalledCount() == 2
	})
	// Three more batches land on shards 2, 3, 0 while no worker is free.
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
		t.Fatal("Close deadlocked with stalled workers and queued shards")
	}
}
