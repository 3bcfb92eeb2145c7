package netstore

// Tests for task-wide replica selection (Cluster.place / c3.Scorer.Spread):
// when a sub-task's keys spread over its shard's replicas, when the
// sub-task stays one message, and that the scorer's outstanding counts
// return to zero on every way a piece can end. Scorers are warmed with
// synthetic feedback so placement does not depend on host timing; every
// ordering point is a stall gate or a counter, never a sleep.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
)

// spreadCluster builds a 1-shard × 2-replica cluster (2 workers per
// server, a FaultInjector on each, no prober) holding keys key:0 … key:7
// with values v0 … v7, and returns the keys in that order.
func spreadCluster(t *testing.T, delay time.Duration) (*Cluster, []*Server, [2]*FaultInjector, []string) {
	t.Helper()
	var injs [2]*FaultInjector
	for i := range injs {
		injs[i] = NewFaultInjector()
	}
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, func(_, replica int) ServerOptions {
		opts := ServerOptions{Workers: 2, Fault: injs[replica]}
		if delay > 0 {
			opts.ServiceDelay = func(int64) time.Duration { return delay }
		}
		return opts
	})
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ServerWorkers: 2, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, keys[i], []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return c, servers, injs, keys
}

// warmScorer feeds shard 0's scorer the feedback of an idle replica pair
// serving svc-long requests behind a 100 µs message overhead.
func warmScorer(c *Cluster, svc time.Duration) {
	sc := c.state.Load().scorers[0]
	for r := 0; r < sc.Replicas(); r++ {
		sc.OnSend(r, 1)
		sc.Observe(r, 1, float64(svc+100*time.Microsecond), float64(svc), 0)
	}
	sc.ObserveMessage(100e3)
}

func checkValues(t *testing.T, keys []string, res *TaskResult) {
	t.Helper()
	for i := range keys {
		if want := fmt.Sprintf("v%d", i); !res.Found[i] || string(res.Values[i]) != want {
			t.Fatalf("slot %d (%s): found=%v value=%q, want %q", i, keys[i], res.Found[i], res.Values[i], want)
		}
	}
}

// waitScorerBalanced waits for shard 0's scorer to count nothing
// outstanding on any replica (late hedge losers fold in asynchronously).
func waitScorerBalanced(t *testing.T, c *Cluster) {
	t.Helper()
	sc := c.state.Load().scorers[0]
	waitFor(t, 5*time.Second, "scorer outstanding back to 0 on every replica", func() bool {
		for r := 0; r < sc.Replicas(); r++ {
			if sc.Outstanding(r) != 0 {
				return false
			}
		}
		return true
	})
}

// batchesSent runs f and returns how many BatchReq messages and
// sub-tasks c's multigets accounted meanwhile.
func batchesSent(c *Cluster, f func()) (batches, subtasks uint64) {
	before := c.Stats()
	f()
	after := c.Stats()
	return after.MultigetBatches - before.MultigetBatches, after.MultigetSubtasks - before.MultigetSubtasks
}

// An 8-key sub-task against two idle, warm replicas with a real service
// cost reaches both servers, and every value lands in its original slot.
func TestSpreadSubTaskOverReplicas(t *testing.T) {
	c, servers, _, keys := spreadCluster(t, 2*time.Millisecond)
	warmScorer(c, 2*time.Millisecond)
	var res *TaskResult
	batches, subtasks := batchesSent(c, func() {
		var err error
		if res, err = c.Multiget(bg, keys, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	checkValues(t, keys, res)
	if batches != 2 || subtasks != 1 {
		t.Fatalf("sent %d batches for %d sub-tasks, want 2 for 1", batches, subtasks)
	}
	if a, b := servers[0].Stats().Served, servers[1].Stats().Served; a == 0 || b == 0 || a+b != 8 {
		t.Fatalf("replicas served %d and %d keys, want both non-zero and 8 in all", a, b)
	}
	waitScorerBalanced(t, c)
	// Both pieces fed the forecast scale: the default CostModel's ≈ 1 µs a
	// key against 2 ms of real service.
	if f := c.scale.factor(); f < 1000 {
		t.Fatalf("forecast scale %.0f after 8 keys of 2 ms service, want at least 1000", f)
	}
}

// The keep-whole rule: one replica down, a sibling ranked far behind the
// primary, a scorer without feedback, and a service cost too small to pay
// for a second message each keep the sub-task one message.
func TestSpreadKeepsSubTaskWhole(t *testing.T) {
	whole := func(t *testing.T, c *Cluster, keys []string, opts ReadOptions) {
		t.Helper()
		var res *TaskResult
		batches, _ := batchesSent(c, func() {
			var err error
			if res, err = c.Multiget(bg, keys, opts); err != nil {
				t.Fatal(err)
			}
		})
		checkValues(t, keys, res)
		if batches != 1 {
			t.Fatalf("sent %d batches, want the sub-task whole in 1", batches)
		}
		waitScorerBalanced(t, c)
	}
	t.Run("replica down", func(t *testing.T) {
		c, servers, _, keys := spreadCluster(t, 2*time.Millisecond)
		servers[1].Close()
		// A read that picks replica 1 finds its connection dead, marks it
		// down and fails over.
		waitFor(t, 5*time.Second, "replica 1 marked down", func() bool {
			if _, err := c.Multiget(bg, keys[:1], ReadOptions{}); err != nil {
				t.Error(err)
			}
			return c.ReplicaDown(0, 1)
		})
		warmScorer(c, 2*time.Millisecond)
		whole(t, c, keys, ReadOptions{})
	})
	t.Run("primary", func(t *testing.T) {
		// Replica 1 answers in a second: even with all eight keys
		// outstanding on replica 0 it ranks behind, so replica 0, the
		// primary, takes the whole sub-task.
		c, servers, _, keys := spreadCluster(t, 2*time.Millisecond)
		sc := c.state.Load().scorers[0]
		for r, resp := range []time.Duration{2*time.Millisecond + 100*time.Microsecond, time.Second} {
			sc.OnSend(r, 1)
			sc.Observe(r, 1, float64(resp), float64(2*time.Millisecond), 0)
		}
		sc.ObserveMessage(100e3)
		whole(t, c, keys, ReadOptions{})
		if got := servers[1].Stats().Served; got != 0 {
			t.Fatalf("replica 1 served %d keys of a read it ranks last for", got)
		}
	})
	t.Run("cold scorer", func(t *testing.T) {
		c, _, _, keys := spreadCluster(t, 2*time.Millisecond)
		whole(t, c, keys, ReadOptions{})
	})
	t.Run("split would not pay", func(t *testing.T) {
		// No ServiceDelay and real feedback only: a store read saves
		// microseconds, a message costs tens of them. This is the saturate
		// workload's guard — one BatchReq per shard, as before spreading.
		c, _, _, keys := spreadCluster(t, 0)
		for i := 0; i < 4; i++ { // both replicas answer at least once
			if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			whole(t, c, keys, ReadOptions{})
		}
	})
}

// A piece whose connection dies mid-flight fails its keys over to the
// sibling; the sibling's own piece is unaffected, every value arrives,
// and the scorer forgets the dead attempt.
func TestSpreadPieceFailsOver(t *testing.T) {
	c, servers, injs, keys := spreadCluster(t, 2*time.Millisecond)
	warmScorer(c, 2*time.Millisecond)
	injs[1].StallNext(2) // park both of replica 1's workers on its piece
	type got struct {
		res *TaskResult
		err error
	}
	done := make(chan got, 1)
	go func() {
		res, err := c.Multiget(bg, keys, ReadOptions{})
		done <- got{res, err}
	}()
	waitFor(t, 5*time.Second, "replica 1's piece parked in service", func() bool {
		return injs[1].StalledCount() == 2
	})
	servers[1].Close()
	g := <-done
	if g.err != nil {
		t.Fatal(g.err)
	}
	checkValues(t, keys, g.res)
	if !c.ReplicaDown(0, 1) || c.ReplicaDown(0, 0) {
		t.Fatalf("down marks: replica 0 %v, replica 1 %v; want only replica 1", c.ReplicaDown(0, 0), c.ReplicaDown(0, 1))
	}
	waitScorerBalanced(t, c)
}

// Cancelling a multiget whose pieces are in flight on both replicas
// unwinds both from the scorer.
func TestSpreadCancelUnwindsScorer(t *testing.T) {
	c, _, injs, keys := spreadCluster(t, 2*time.Millisecond)
	warmScorer(c, 2*time.Millisecond)
	injs[0].StallNext(2)
	injs[1].StallNext(2)
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		_, err := c.Multiget(ctx, keys, ReadOptions{})
		done <- err
	}()
	waitFor(t, 5*time.Second, "a piece parked on each replica", func() bool {
		return injs[0].StalledCount() == 2 && injs[1].StalledCount() == 2
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled multiget returned %v, want context.Canceled", err)
	}
	waitScorerBalanced(t, c)
	injs[0].Release()
	injs[1].Release()
	if c.ReplicaDown(0, 0) || c.ReplicaDown(0, 1) {
		t.Fatal("a cancelled piece marked its replica down")
	}
}
