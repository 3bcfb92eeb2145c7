package netstore

// End-to-end tests of the context-first API: deadline propagation from
// caller contexts over the wire into server-side expiry shedding,
// cancellation mid-multiget, the default request timeout against
// wedged-but-open connections, and write fan-out modes. The
// cancellation and shedding tests run under -race in CI alongside the
// rest of this package.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/testutil"
	"github.com/brb-repro/brb/internal/wire"
)

// stallProxy fronts one server: it forwards traffic transparently until
// Stall, after which it silently swallows bytes in both directions while
// keeping every connection open — the wedged-but-open failure mode
// (process stalled, TCP alive) that timeouts exist for. Unlike a kill,
// no read or write ever errors; only a deadline gets the caller out.
type stallProxy struct {
	ln        net.Listener
	target    string
	stalled   atomic.Bool
	swallowed atomic.Int64 // bytes eaten while stalled: proof a request hit the wedge
}

func newStallProxy(t *testing.T, target string) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target}
	t.Cleanup(func() { _ = ln.Close() })
	go p.acceptLoop()
	return p
}

func (p *stallProxy) addr() string { return p.ln.Addr().String() }
func (p *stallProxy) stall()       { p.stalled.Store(true) }

func (p *stallProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		backend, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = conn.Close()
			continue
		}
		pipe := func(dst, src net.Conn) {
			buf := make([]byte, 32<<10)
			for {
				n, err := src.Read(buf)
				if err != nil {
					_ = dst.Close()
					_ = src.Close()
					return
				}
				if p.stalled.Load() {
					p.swallowed.Add(int64(n))
					continue // swallow: the conn stays open, nothing flows
				}
				if _, err := dst.Write(buf[:n]); err != nil {
					_ = src.Close()
					return
				}
			}
		}
		go pipe(backend, conn)
		go pipe(conn, backend)
	}
}

// wedgedListener accepts connections and then ignores them entirely —
// never reads, never replies — the simplest wedged-but-open server. Once
// the socket buffers fill, a peer's writes block.
func wedgedListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		var held []net.Conn
		defer func() {
			for _, conn := range held {
				_ = conn.Close()
			}
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, conn)
		}
	}()
	return ln.Addr().String()
}

// Regression for the foreground-write hang: Set/Delete used to pass
// timeout 0 to awaitAck and block forever on a wedged-but-open
// connection. With the context-first API a default request timeout
// applies even under context.Background() (shortened from
// DefaultRequestTimeout here to keep the test fast).
func TestForegroundWriteDefaultTimeoutOnWedgedServer(t *testing.T) {
	addr := wedgedListener(t)
	c, err := DialCluster([]string{addr}, ClusterOptions{Topology: testTopo(1), requestTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, op := range []struct {
		name string
		call func() error
	}{
		{"Set", func() error { return c.Set(bg, "k", []byte("v"), WriteOptions{}) }},
		{"Delete", func() error { return c.Delete(bg, "k", WriteOptions{}) }},
	} {
		start := time.Now()
		err := op.call()
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s against a wedged server succeeded", op.name)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s err = %v, want context.DeadlineExceeded", op.name, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("%s took %v; the 200ms default timeout did not apply", op.name, elapsed)
		}
	}
}

// A per-call WriteOptions.Timeout narrows the wait below the default.
func TestPerCallWriteTimeout(t *testing.T) {
	addr := wedgedListener(t)
	c, err := DialCluster([]string{addr}, ClusterOptions{Topology: testTopo(1)}) // default 10s
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Set(bg, "k", []byte("v"), WriteOptions{Timeout: 100 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("per-call timeout ignored: took %v", elapsed)
	}
}

// stalledShardCluster builds a 2-shard × 1-replica cluster with shard
// 1's server behind a stall proxy, loads one key per shard, and returns
// the client, the two keys, and the proxy (not yet stalled).
func stalledShardCluster(t *testing.T, opts ClusterOptions) (*Cluster, string, string, *stallProxy) {
	t.Helper()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, _ := startShardedCluster(t, m, nil)
	proxy := newStallProxy(t, addrs[m.Server(1, 0)])
	dialAddrs := append([]string(nil), addrs...)
	dialAddrs[m.Server(1, 0)] = proxy.addr()
	opts.Topology = m
	c, err := DialCluster(dialAddrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	var k0, k1 string
	for i := 0; k0 == "" || k1 == ""; i++ {
		k := fmt.Sprintf("key:%d", i)
		if m.ShardOfKey(k) == 0 && k0 == "" {
			k0 = k
		}
		if m.ShardOfKey(k) == 1 && k1 == "" {
			k1 = k
		}
	}
	if err := c.Set(bg, k0, []byte("live"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(bg, k1, []byte("stalled"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return c, k0, k1, proxy
}

// The acceptance scenario: a multiget spanning a stalled replica returns
// within the caller's deadline with the live shard's partial results and
// an error wrapping context.DeadlineExceeded — one wedged replica no
// longer hangs the caller.
func TestMultigetDeadlineAgainstStalledReplica(t *testing.T) {
	c, k0, k1, proxy := stalledShardCluster(t, ClusterOptions{ProbeInterval: -1})
	proxy.stall()

	ctx, cancel := context.WithTimeout(bg, 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := c.Multiget(ctx, []string{k0, k1}, ReadOptions{})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("multiget against a stalled replica succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the join", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("multiget took %v, deadline was 300ms", elapsed)
	}
	if res == nil {
		t.Fatal("no partial result returned alongside the deadline error")
	}
	if !res.Found[0] || string(res.Values[0]) != "live" {
		t.Fatalf("live shard's key dropped from partial result: found=%v val=%q", res.Found[0], res.Values[0])
	}
	if res.Found[1] {
		t.Fatal("stalled shard's key reported found")
	}
	if st := c.Stats(); st.Expired != 1 || st.Cancelled != 0 {
		t.Fatalf("Expired=%d Cancelled=%d, want the one multiget expired", st.Expired, st.Cancelled)
	}
	// The stalled replica must NOT be marked down: the deadline ended the
	// wait, not a transport failure.
	if c.ReplicaDown(1, 0) {
		t.Fatal("deadline expiry marked a live-but-slow replica down")
	}
}

// Cancellation mid-multiget: ctx cancelled while one shard's replica is
// stalled unblocks the caller promptly with context.Canceled (run under
// -race in CI against the concurrent fan-out goroutines).
func TestCancellationMidMultiget(t *testing.T) {
	// The cancel lands within the poll below, long before
	// DefaultRequestTimeout could end the call.
	c, k0, k1, proxy := stalledShardCluster(t, ClusterOptions{ProbeInterval: -1})
	proxy.stall()

	live := c.state.Load().scorers[0]
	ctx, cancel := context.WithCancel(bg)
	go func() {
		// Cancel once the wedged proxy has demonstrably swallowed the
		// multiget's request bytes — i.e. the caller is parked in the
		// stalled wait, which is the state cancellation must escape —
		// and the live shard's answer is in: its scorer shows nothing
		// outstanding once observe has folded the reply, and from there
		// fetchBatch stores the result without looking at ctx. Without
		// that second wait the cancel can beat the live answer.
		// Cancel unconditionally so a missed observation can't stall the
		// test until DefaultRequestTimeout.
		_ = testutil.Poll(5*time.Second, func() bool {
			return proxy.swallowed.Load() > 0 && live.Outstanding(0) == 0
		})
		cancel()
	}()
	start := time.Now()
	res, err := c.Multiget(ctx, []string{k0, k1}, ReadOptions{})
	elapsed := time.Since(start)

	if err == nil {
		t.Fatal("cancelled multiget succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to unblock the caller", elapsed)
	}
	if res == nil || !res.Found[0] {
		t.Fatal("live shard's partial result lost on cancellation")
	}
	if st := c.Stats(); st.Cancelled != 1 || st.Expired != 0 {
		t.Fatalf("Cancelled=%d Expired=%d, want the one multiget cancelled", st.Cancelled, st.Expired)
	}
}

// Server-side expiry shedding at the wire level: a batch whose budget
// runs out while it queues behind a slow batch is answered with per-key
// Expired bits — no store read, no service delay — and the drop counter
// advances. The client keeps a generous ctx here so the Expired bits
// themselves are observable (in production the budget IS the client's
// deadline; the bits are telemetry and the saved service time is the
// point).
func TestServerExpiresQueuedWork(t *testing.T) {
	inj := NewFaultInjector()
	srv := NewServer(kv.New(0), ServerOptions{Workers: 1, Fault: inj})
	defer srv.Close()
	srv.Store().Set("k", []byte("v"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	sc := dialConn(t, ln.Addr().String())

	// Occupy the single worker deterministically: the batch parks at the
	// injector's stall gate mid-service, and StalledCount is the
	// synchronization point (no sleep, no guessed margin).
	inj.StallNext(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := sc.batch(bg, &wire.BatchReq{Priority: []int64{0}, Keys: []string{"k"}}); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, 5*time.Second, "occupying batch stalled in service", func() bool {
		return inj.StalledCount() == 1
	})

	// This batch's 1ns budget is spent before it can ever be popped:
	// once it is queued behind the stalled worker, releasing the gate
	// MUST shed it, no matter how fast the machine is.
	var resp *wire.BatchResp
	errCh := make(chan error, 1)
	go func() {
		var berr error
		resp, berr = sc.batch(bg, &wire.BatchReq{
			Budget:   1,
			Priority: []int64{0},
			Keys:     []string{"k"},
		})
		errCh <- berr
	}()
	waitFor(t, 5*time.Second, "expiring batch queued", func() bool {
		return srv.QueueLen() >= 1
	})
	inj.Release()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if resp.Expired == nil || !resp.Expired[0] {
		t.Fatalf("expired batch not marked: %+v", resp)
	}
	if resp.Found[0] {
		t.Fatal("shed key reported found")
	}
	// Shedding saved the service work: only the occupying batch's key
	// was serviced.
	if st := srv.Stats(); st.ExpiredDrops != 1 || st.Served != 1 {
		t.Fatalf("ExpiredDrops=%d Served=%d, want 1 and 1 (the shed key must not be served)", st.ExpiredDrops, st.Served)
	}
}

// The deadline e2e: through the public Multiget API, queued work whose
// caller deadline lapses is shed server-side (non-zero expired-drop
// counter — the acceptance criterion) while the caller gets its partial
// answer within the deadline.
func TestDeadlineEndToEndShedding(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	inj := NewFaultInjector()
	addrs, servers := startShardedCluster(t, m, func(_, _ int) ServerOptions {
		return ServerOptions{Workers: 1, Fault: inj}
	})
	srv := servers[0]
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, keys[i], []byte("v"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// The occupying multiget parks at the injector gate on its first key,
	// wedging the single worker; StalledCount==1 is the proof it got the
	// worker first (the old version slept and hoped).
	inj.StallNext(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
			t.Errorf("occupying multiget: %v", err)
		}
	}()
	waitFor(t, 5*time.Second, "occupying multiget stalled in service", func() bool {
		return inj.StalledCount() == 1
	})

	// The deadline-bounded multiget queues behind the wedged worker and
	// returns at its 50ms deadline with the queue items still pending.
	start := time.Now()
	_, err = c.Multiget(bg, keys, ReadOptions{Timeout: 50 * time.Millisecond})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline-bounded multiget took %v", elapsed)
	}
	inj.Release()
	wg.Wait() // the occupying batch drains the queue, popping expired items

	waitFor(t, 5*time.Second, "server-side expired drops", func() bool {
		return srv.Stats().ExpiredDrops > 0
	})
}

// Regression: when a shard's replicas are all exhausted (down-marked),
// fetchBatch polls for a newer topology before reporting a dead shard —
// and that poll must honor the caller's deadline even when the only
// live server to poll is wedged-but-open. The caller gets its
// DeadlineExceeded within budget, never a clientDialTimeout-long stall.
func TestDeadShardTopologyPollHonorsDeadline(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, servers := startShardedCluster(t, m, nil)
	// Shard 0's server sits behind a (soon-stalled) proxy; shard 1's
	// will be killed outright.
	proxy := newStallProxy(t, addrs[m.Server(0, 0)])
	dialAddrs := append([]string(nil), addrs...)
	dialAddrs[m.Server(0, 0)] = proxy.addr()
	c, err := DialCluster(dialAddrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var k1 string
	for i := 0; k1 == ""; i++ {
		if k := fmt.Sprintf("key:%d", i); m.ShardOfKey(k) == 1 {
			k1 = k
		}
	}
	if err := c.Set(bg, k1, []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	// Kill shard 1 and let a first read mark its replica down.
	servers[m.Server(1, 0)].Close()
	if _, err := c.Multiget(bg, []string{k1}, ReadOptions{Timeout: time.Second}); err == nil {
		t.Fatal("multiget against a killed shard succeeded")
	}
	proxy.stall()

	// Now shard 1 has no eligible replica and the only pollable server
	// (shard 0) is wedged: the topology poll must give up at the
	// caller's 200ms deadline, not at the 5s dial timeout.
	start := time.Now()
	_, err = c.Multiget(bg, []string{k1}, ReadOptions{Timeout: 200 * time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("multiget with every replica down succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("multiget took %v; the topology poll ignored the 200ms deadline", elapsed)
	}
}

// A dead shard's topology poll must not hold the rest of the task: the
// keys of a healthy shard in the same multiget go out before the poll
// starts, and their values come back beside the dead shard's deadline
// error even when the poll spends the whole budget.
func TestDeadShardPollSparesHealthyShard(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 1})
	addrs, servers := startShardedCluster(t, m, nil)
	// Shard 0's server sits behind a (soon-stalled) proxy, so the poll
	// never ends before the deadline; shard 1 is killed; shard 2 stays
	// healthy.
	proxy := newStallProxy(t, addrs[m.Server(0, 0)])
	dialAddrs := append([]string(nil), addrs...)
	dialAddrs[m.Server(0, 0)] = proxy.addr()
	c, err := DialCluster(dialAddrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keyOn := func(shard int) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("key:%d", i); m.ShardOfKey(k) == shard {
				return k
			}
		}
	}
	dead, healthy := keyOn(1), keyOn(2)
	for _, k := range []string{dead, healthy} {
		if err := c.Set(bg, k, []byte("v:"+k), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	servers[m.Server(1, 0)].Close()
	if _, err := c.Multiget(bg, []string{dead}, ReadOptions{Timeout: time.Second}); err == nil {
		t.Fatal("multiget against a killed shard succeeded")
	}
	proxy.stall()

	res, err := c.Multiget(bg, []string{dead, healthy}, ReadOptions{Timeout: 200 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded for the dead shard", err)
	}
	if !res.Found[1] || string(res.Values[1]) != "v:"+healthy {
		t.Fatalf("healthy shard's key = %q found=%v, want %q beside the dead shard's error", res.Values[1], res.Found[1], "v:"+healthy)
	}
	if res.Found[0] {
		t.Fatal("dead shard's key reported found")
	}
}

// A write waits for every live replica, so a stalled sibling holds it
// until the deadline — and the ack the live replica gave makes it a
// success (a write errors only when NO replica accepted it).
func TestWriteWaitsOutStalledReplica(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	proxy := newStallProxy(t, addrs[m.Server(0, 1)])
	dialAddrs := append([]string(nil), addrs...)
	dialAddrs[m.Server(0, 1)] = proxy.addr()
	c, err := DialCluster(dialAddrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(bg, "k", []byte("v0"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	proxy.stall()

	start := time.Now()
	if err := c.Set(bg, "k", []byte("v1"), WriteOptions{Timeout: 250 * time.Millisecond}); err != nil {
		t.Fatalf("write with one live replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write took %v, deadline was 250ms", elapsed)
	}
	if v, _ := servers[m.Server(0, 0)].Store().Get("k"); string(v) != "v1" {
		t.Fatalf("live replica holds %q, want v1", v)
	}
}

// lateCtx is a context whose deadline has passed while its Done channel
// is still open: the window between a deadline and the timer that
// closes Done, which can last a timer quantum on a loaded host.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// A budget spent before Done closes is the deadline: a read and a write
// under it fail with an error that prints and matches
// context.DeadlineExceeded, and neither marks a healthy replica down.
func TestSpentBudgetBeforeDone(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, _ := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	ctx := lateCtx{bg}
	check := func(what string, err error) {
		t.Helper()
		var msg string
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Error() panicked: %v", what, r)
				}
			}()
			msg = err.Error()
		}()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s under a spent budget: err = %v, want context.DeadlineExceeded", what, msg)
		}
	}
	_, err = c.Multiget(ctx, []string{"k"}, ReadOptions{})
	check("Multiget", err)
	_, err = c.Multiget(ctx, []string{"k"}, ReadOptions{Hedge: HedgePolicy{Mode: HedgeAdaptive}})
	check("hedged Multiget", err)
	check("Set", c.Set(ctx, "k", []byte("w"), WriteOptions{}))
	if n := c.DownReplicas(); n != 0 {
		t.Fatalf("%d replicas marked down by a spent budget, want 0", n)
	}
	if v, found, err := c.Get(bg, "k", ReadOptions{}); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after the spent-budget calls = %q found=%v err=%v, want \"v\"", v, found, err)
	}
}
