package netstore

// End-to-end tests of the failure-recovery subsystem: kill→restart→
// revival, hinted handoff and its overflow catch-up, versioned deletes, and partial
// multiget results. Servers are "restarted" by re-listening on the same
// address over the same kv.Store — the in-process equivalent of a
// process restart on a machine whose storage survived.

import (
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
)

// restartServer brings a killed replica back on its old address over the
// given (surviving) store.
func restartServer(t *testing.T, addr string, store *kv.Store, shard int) *Server {
	t.Helper()
	srv := NewServer(store, ServerOptions{Workers: 2, Shard: shard, CheckShard: true})
	var ln net.Listener
	var err error
	// The killed server's listener may linger briefly; poll the bind.
	if !testutil.Poll(5*time.Second, func() bool {
		ln, err = net.Listen("tcp", addr)
		return err == nil
	}) {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	testutil.Eventually(t, timeout, what, cond)
}

// TestClusterReplicaRevival is the tentpole scenario: a replica killed
// mid-run is restarted on the same address, the client revives it
// without being restarted itself, hinted writes replay, and a full-key
// version scan of the shard's replicas converges.
func TestClusterReplicaRevival(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	allKeys := make([]string, 0, 80)
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("key:%d", i)
		allKeys = append(allKeys, k)
		if err := c.Set(bg, k, []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Kill replica 0 of shard 0, keeping its store and address.
	victim := m.Server(0, 0)
	victimStore := servers[victim].Store()
	servers[victim].Close()

	// Writes while the replica is down: the ones hashing to shard 0 fail
	// on the dead connection, mark it down, and buffer hints.
	for i := 40; i < 80; i++ {
		k := fmt.Sprintf("key:%d", i)
		allKeys = append(allKeys, k)
		if err := c.Set(bg, k, []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatalf("Set %s with one replica down: %v", k, err)
		}
	}
	// Overwrites of pre-kill keys must also hint (newer version wins).
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, k, []byte(fmt.Sprintf("v%d-new", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if !c.ReplicaDown(0, 0) {
		t.Fatal("victim not marked down after failed writes")
	}
	if c.PendingHints(0, 0) == 0 {
		t.Fatal("no hints buffered for the down replica")
	}

	restartServer(t, addrs[victim], victimStore, 0)

	// The prober must revive the replica — no client restart — and only
	// after replaying hints.
	waitFor(t, 5*time.Second, "replica revival", func() bool { return !c.ReplicaDown(0, 0) })
	if c.Stats().Revivals == 0 {
		t.Fatal("revival not counted")
	}
	if n := c.PendingHints(0, 0); n != 0 {
		t.Fatalf("%d hints left after revival", n)
	}

	// Reads keep working and see the latest writes wherever they route.
	res, err := c.Multiget(bg, allKeys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range allKeys {
		if !res.Found[i] {
			t.Fatalf("%s missing after revival", k)
		}
	}

	// Full-key scan: both replicas of shard 0 must hold identical
	// versions for every shard-0 key, including those written or
	// overwritten during the outage.
	var shard0Keys []string
	for _, k := range allKeys {
		if m.ShardOfKey(k) == 0 {
			shard0Keys = append(shard0Keys, k)
		}
	}
	if len(shard0Keys) == 0 {
		t.Fatal("no keys hashed to shard 0")
	}
	v0, f0, err := ScanVersions(bg, addrs[m.Server(0, 0)], 0, shard0Keys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	v1, f1, err := ScanVersions(bg, addrs[m.Server(0, 1)], 0, shard0Keys, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range shard0Keys {
		if !f0[i] || !f1[i] {
			t.Fatalf("%s found=%v/%v across replicas", k, f0[i], f1[i])
		}
		if v0[i] != v1[i] {
			t.Fatalf("%s diverged: replica0 v%d, replica1 v%d", k, v0[i], v1[i])
		}
	}
}

// overflowHints writes n distinct keys through c while replica 0 of its
// one shard is down, so writes past maxHintsPerReplica are dropped from
// the replica's hint buffer and mark it overflowed. It returns the keys
// in write order: the first maxHintsPerReplica are hinted, the rest
// dropped.
func overflowHints(t *testing.T, c *Cluster, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, keys[i], []byte("v"), WriteOptions{}); err != nil {
			t.Fatalf("Set %s with one replica down: %v", keys[i], err)
		}
	}
	dropped := uint64(n - maxHintsPerReplica)
	if got := c.Stats().HintOverflows; got != dropped {
		t.Fatalf("HintOverflows = %d, want %d", got, dropped)
	}
	if got := c.PendingHints(0, 0); got != maxHintsPerReplica {
		t.Fatalf("PendingHints = %d, want the bound %d", got, maxHintsPerReplica)
	}
	if !overflowed(c, 0, 0) {
		t.Fatal("hint buffer not marked overflowed")
	}
	return keys
}

// overflowed reports whether a replica's hint buffer is marked
// overflowed.
func overflowed(c *Cluster, shard, replica int) bool {
	hb := &c.state.Load().slotOf(shard, replica).hints
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.overflowed
}

// missing returns the keys store does not hold at the version c last
// wrote.
func missing(c *Cluster, store *kv.Store, keys []string) []string {
	var out []string
	for _, k := range keys {
		want, _ := c.WrittenVersion(k)
		if _, ver, _ := store.GetVersion(k); ver != want {
			out = append(out, k)
		}
	}
	return out
}

// TestClusterHintOverflow: the hinted-handoff buffer is bounded. With a
// replica down, writes past maxHintsPerReplica distinct keys are
// dropped from its buffer and counted, and the buffer is marked
// overflowed. The revival catches the replica up from its sibling before
// it serves reads: when the down mark clears, every key — hinted or
// dropped — is on the replica at its acked version, with no read issued.
func TestClusterHintOverflow(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	victim := m.Server(0, 0)
	victimStore := servers[victim].Store()
	servers[victim].Close()
	keys := overflowHints(t, c, maxHintsPerReplica+50)

	restartServer(t, addrs[victim], victimStore, 0)
	waitFor(t, 10*time.Second, "revival", func() bool { return !c.ReplicaDown(0, 0) })
	if miss := missing(c, victimStore, keys); len(miss) > 0 {
		t.Fatalf("%d keys not at their acked version on the revived replica, first %s", len(miss), miss[0])
	}
	if overflowed(c, 0, 0) {
		t.Fatal("overflow mark still set after a catch-up")
	}
}

// TestClusterHintOverflowDelete: a delete the full hint buffer dropped
// reaches the revived replica as a tombstone at the delete's version,
// even though the replica kept the value standing.
func TestClusterHintOverflowDelete(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set(bg, "doomed", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	victim := m.Server(0, 0)
	victimStore := servers[victim].Store()
	servers[victim].Close()
	overflowHints(t, c, maxHintsPerReplica+1)
	if err := c.Delete(bg, "doomed", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().HintOverflows; got != 2 {
		t.Fatalf("HintOverflows = %d, want the delete dropped too (2)", got)
	}
	if _, ok := victimStore.Get("doomed"); !ok {
		t.Fatal("victim lost the value it was supposed to be stale with")
	}

	restartServer(t, addrs[victim], victimStore, 0)
	waitFor(t, 10*time.Second, "revival", func() bool { return !c.ReplicaDown(0, 0) })
	if _, ok := victimStore.Get("doomed"); ok {
		t.Fatal("revived replica still serves the deleted key")
	}
	if miss := missing(c, victimStore, []string{"doomed"}); len(miss) > 0 {
		t.Fatal("revived replica's tombstone is not at the delete's version")
	}
}

// TestClusterHintOverflowSiblingDown: a replica whose hint buffer
// overflowed revives while its only sibling is down too — the shard needs
// it — with the overflow mark kept, and the dropped keys reach it once
// the sibling is back.
func TestClusterHintOverflowSiblingDown(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	victim, sibling := m.Server(0, 0), m.Server(0, 1)
	victimStore, siblingStore := servers[victim].Store(), servers[sibling].Store()
	servers[victim].Close()
	keys := overflowHints(t, c, maxHintsPerReplica+50)
	dropped := keys[maxHintsPerReplica:]

	servers[sibling].Close()
	if _, err := c.Multiget(bg, dropped[:1], ReadOptions{}); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Multiget with both replicas dead: err = %v, want ErrNoReplica", err)
	}
	restartServer(t, addrs[victim], victimStore, 0)
	waitFor(t, 10*time.Second, "revival without a live sibling", func() bool { return !c.ReplicaDown(0, 0) })
	if !c.ReplicaDown(0, 1) {
		t.Fatal("sibling not marked down")
	}
	if !overflowed(c, 0, 0) {
		t.Fatal("overflow mark cleared with no sibling to catch up from")
	}
	if miss := missing(c, victimStore, dropped); len(miss) != len(dropped) {
		t.Fatalf("%d of %d dropped keys reached the replica with no sibling up", len(dropped)-len(miss), len(dropped))
	}

	restartServer(t, addrs[sibling], siblingStore, 0)
	waitFor(t, 10*time.Second, "catch-up from the restarted sibling", func() bool {
		return len(missing(c, victimStore, keys)) == 0 && !overflowed(c, 0, 0)
	})
}

// TestHintForRetiredReplicaReachesNewOwner: a hint buffered for a
// replica whose shard a rebalance then removes holds the only copy of an
// acknowledged write — the replica that acked it is gone, and the
// migration drained the shard from an empty replacement. The hint must
// still reach every replica of the key's new owner.
func TestHintForRetiredReplicaReachesNewOwner(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, servers := startShardedCluster(t, base, nil)
	topo, err := base.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := PushTopology(bg, topo); err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster(nil, ClusterOptions{Topology: topo, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var key string
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("key:%d", i); topo.ShardOfKey(k) == 1 {
			key = k
		}
	}

	// Replica (1,1) is down: only (1,0) acks, the client hints (1,1).
	servers[topo.Server(1, 1)].Close()
	if err := c.Set(bg, key, []byte("hinted"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := c.PendingHints(1, 1); n != 1 {
		t.Fatalf("%d hints buffered for the down replica, want 1", n)
	}
	ver, _ := c.WrittenVersion(key)
	// (1,0) dies too: the hint is now the write's only copy.
	servers[topo.Server(1, 0)].Close()

	// Shard 1 drains from an empty replacement at an address the client
	// never dialed.
	over := append([]string(nil), addrs...)
	empty := startShardServers(t, 1, 1)[0]
	for _, sid := range topo.ReplicaServers(1) {
		over[sid] = empty
	}
	from, err := base.WithAddrs(over)
	if err != nil {
		t.Fatal(err)
	}
	next, err := RemoveShard(bg, from, 1, RebalanceOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.InstallTopology(next)

	owner := next.ShardOfKey(key)
	waitFor(t, 5*time.Second, "the hint reaching both replicas of the key's new owner", func() bool {
		for _, sid := range next.ReplicaServers(owner) {
			vers, found, err := ScanVersions(bg, next.Addr(sid), owner, []string{key}, time.Second)
			if err != nil || !found[0] || vers[0] < ver {
				return false
			}
		}
		return true
	})
}

// TestClusterWriteTotalFailureRetractsHints: a write that no replica
// accepted reports an error and must not resurface later — the hints it
// buffered are taken back.
func TestClusterWriteTotalFailureRetractsHints(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, srv := range servers {
		srv.Close()
	}
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Set with every replica dead: err = %v, want ErrNoReplica", err)
	}
	for r := 0; r < 2; r++ {
		if n := c.PendingHints(0, r); n != 0 {
			t.Fatalf("replica %d still holds %d hints for a failed write", r, n)
		}
	}
}

// TestClusterDelete: deletes propagate to every replica with a version,
// so they survive revival ordering, and the learned size cache forgets
// the key.
func TestClusterDelete(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if !c.sizeLearned("k") {
		t.Fatal("size not learned on Set")
	}
	if err := c.Delete(bg, "k", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.sizeLearned("k") {
		t.Fatal("size cache not invalidated on Delete")
	}
	for r := 0; r < 2; r++ {
		if _, ok := servers[m.Server(0, r)].Store().Get("k"); ok {
			t.Fatalf("replica %d still stores deleted key", r)
		}
	}
	res, err := c.Multiget(bg, []string{"k"}, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found[0] {
		t.Fatal("deleted key still found")
	}
	// A later Set (newer version) revives the key everywhere.
	if err := c.Set(bg, "k", []byte("v2"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Multiget(bg, []string{"k"}, ReadOptions{})
	if err != nil || !res.Found[0] || string(res.Values[0]) != "v2" {
		t.Fatalf("re-set after delete: %v found=%v val=%q", err, res.Found[0], res.Values[0])
	}
}

// TestClusterMultigetPartialResults: with a whole shard dead, Multiget
// returns the joined error AND the values the live shards produced.
func TestClusterMultigetPartialResults(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Find keys on both shards.
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
	if err := c.Set(bg, k0, []byte("a"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(bg, k1, []byte("b"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	servers[m.Server(1, 0)].Close()

	res, err := c.Multiget(bg, []string{k0, k1}, ReadOptions{})
	if err == nil {
		t.Fatal("Multiget succeeded with a dead shard")
	}
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica in the join", err)
	}
	if res == nil {
		t.Fatal("no partial result returned alongside the error")
	}
	if !res.Found[0] || string(res.Values[0]) != "a" {
		t.Fatalf("live shard's key dropped from partial result: found=%v val=%q", res.Found[0], res.Values[0])
	}
	if res.Found[1] {
		t.Fatal("dead shard's key reported found")
	}
}

// TestClusterProbeRaceWithMultigets hammers reads and writes while a
// replica is repeatedly killed and restarted; run under -race (CI does)
// this exercises the probe loop's connection swaps against concurrent
// batch traffic. The surviving replica means no operation may fail.
func TestClusterProbeRaceWithMultigets(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 32
	for i := 0; i < keys; i++ {
		if err := c.Set(bg, fmt.Sprintf("key:%d", i), []byte("v"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Uint64
	errCh := make(chan error, 4)
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key:%d", (w*11+i)%keys)
				if i%4 == 0 {
					if err := c.Set(bg, k, []byte(fmt.Sprintf("v%d-%d", w, i)), WriteOptions{}); err != nil {
						errCh <- fmt.Errorf("Set: %w", err)
						return
					}
				} else if _, err := c.Multiget(bg, []string{k}, ReadOptions{}); err != nil {
					errCh <- fmt.Errorf("Multiget: %w", err)
					return
				}
				ops.Add(1)
			}
		}()
	}

	victim := m.Server(0, 0)
	store := servers[victim].Store()
	srv := servers[victim]
	for round := 0; round < 3; round++ {
		srv.Close()
		// The kill is only a real revival test once the client has
		// noticed: wait for the down mark, not a fixed grace period.
		waitFor(t, 5*time.Second, "victim marked down", func() bool { return c.ReplicaDown(0, 0) })
		srv = restartServer(t, addrs[victim], store, 0)
		waitFor(t, 5*time.Second, "revival", func() bool { return !c.ReplicaDown(0, 0) })
		// Soak the revived topology under real traffic before the next
		// kill: wait for the workers to push operations through it.
		base := ops.Load()
		waitFor(t, 5*time.Second, "post-revival traffic", func() bool { return ops.Load() >= base+100 })
	}
	close(stop)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("operation failed with a live replica present: %v", err)
	}
}
