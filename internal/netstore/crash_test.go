package netstore

// End-to-end crash-recovery tests: hard-kill an in-process durable
// server (Server.Kill — no flush, no final snapshot, the in-process
// SIGKILL) and assert that every write the cluster acknowledged is
// still served after a restart from the same data directory. Recovery
// is local-first (snapshot + WAL replay before Serve); hinted handoff
// only covers writes acked while the replica was down.

import (
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/testutil"
)

// startDurable starts one durable server for shard on listenAddr
// ("127.0.0.1:0" for a fresh port; a concrete address to restart in
// place, retried briefly while the kernel releases the old listener).
func startDurable(t *testing.T, shard int, dir, listenAddr string) (*Server, string, kv.ReplayStats) {
	t.Helper()
	srv, stats, err := NewDurableServer(kv.New(0), ServerOptions{
		Workers:    2,
		Shard:      shard,
		CheckShard: true,
		DataDir:    dir,
		Fsync:      kv.FsyncAlways,
	})
	if err != nil {
		t.Fatalf("NewDurableServer(%s): %v", dir, err)
	}
	var ln net.Listener
	// The dying server's listener may linger briefly; poll the bind.
	if !testutil.Poll(5*time.Second, func() bool {
		ln, err = net.Listen("tcp", listenAddr)
		return err == nil
	}) {
		t.Fatalf("re-listen %s: %v", listenAddr, err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String(), stats
}

// waitUntil polls cond to true within 10s — convergence waits that
// depend on probe/hint goroutines, not on fixed sleeps.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	testutil.Eventually(t, 10*time.Second, what, cond)
}

// scanAtLeast reports whether addr serves every key of shard at a
// version ≥ wantVer[key]: CheckConvergence's acked-version check on one
// replica, for polling.
func scanAtLeast(addr string, shard int, keys []string, wantVer map[string]uint64) bool {
	vers, _, err := ScanVersions(bg, addr, shard, keys, 2*time.Second)
	if err != nil {
		return false
	}
	for i, k := range keys {
		if vers[i] < wantVer[k] {
			return false
		}
	}
	return true
}

// TestCrashRecoveryUniform is the strict per-replica durability claim:
// single-replica shards, so every cluster ack IS the victim's WAL ack —
// kill it, restart from disk alone (no hints possible), and every acked
// write and delete must be there.
func TestCrashRecoveryUniform(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	dirs := []string{t.TempDir(), t.TempDir()}
	addrs := make([]string, 2)
	servers := make([]*Server, 2)
	for s := 0; s < 2; s++ {
		servers[s], addrs[s], _ = startDurable(t, s, dirs[s], "127.0.0.1:0")
	}
	c, err := DialCluster(addrs, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 80)
	acked := map[string]uint64{}
	for i := range keys {
		keys[i] = fmt.Sprintf("crash:%d", i)
		if err := c.Set(bg, keys[i], []byte(fmt.Sprintf("v-%d", i)), WriteOptions{}); err != nil {
			t.Fatalf("Set %s: %v", keys[i], err)
		}
	}
	// Overwrites and deletes so replay has versions to order and
	// tombstones to preserve.
	for i := 0; i < 20; i++ {
		if err := c.Set(bg, keys[i], []byte("v2"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[string]bool{}
	for i := 20; i < 26; i++ {
		if err := c.Delete(bg, keys[i], WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		deleted[keys[i]] = true
	}
	for _, k := range keys {
		v, ok := c.WrittenVersion(k)
		if !ok {
			t.Fatalf("no acked version recorded for %s", k)
		}
		acked[k] = v
	}

	victim := 0
	servers[victim].Kill()
	_, addr, stats := startDurable(t, victim, dirs[victim], addrs[victim])
	if stats.WALRecords == 0 {
		t.Fatal("restart replayed no WAL records; the kill tested nothing")
	}

	// Directly against the restarted server, before any cluster-side
	// repair could reach it: acked state must come from disk alone.
	var mine []string
	for _, k := range keys {
		if m.ShardOfKey(k) == victim {
			mine = append(mine, k)
		}
	}
	if len(mine) == 0 {
		t.Fatal("no key hashed to the victim shard; test covers nothing")
	}
	vers, found, err := ScanVersions(bg, addr, victim, mine, 5*time.Second)
	if err != nil {
		t.Fatalf("scan restarted server: %v", err)
	}
	for i, k := range mine {
		if vers[i] < acked[k] {
			t.Fatalf("key %s recovered at v%d < acked v%d (lost acked write)", k, vers[i], acked[k])
		}
		if deleted[k] {
			if found[i] {
				t.Fatalf("deleted key %s resurrected by replay", k)
			}
		} else if !found[i] {
			t.Fatalf("key %s missing after restart", k)
		}
	}
}

// TestCrashRecoveryTornTail kills a replica AND tears the final WAL
// record (the on-disk shape of a crash mid-append): replay must stop at
// the tear without losing any complete — i.e. any acked — record.
func TestCrashRecoveryTornTail(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	dir := t.TempDir()
	srv, addr, _ := startDurable(t, 0, dir, "127.0.0.1:0")
	c, err := DialCluster([]string{addr}, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 30)
	acked := map[string]uint64{}
	for i := range keys {
		keys[i] = fmt.Sprintf("torn:%d", i)
		if err := c.Set(bg, keys[i], []byte("v"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
		acked[keys[i]], _ = c.WrittenVersion(keys[i])
	}
	c.Close()
	srv.Kill()

	// Tear the tail: a half-written record that was never acked.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tore := false
	for _, e := range entries {
		if len(e.Name()) > 4 && e.Name()[len(e.Name())-4:] == ".seg" {
			f, err := os.OpenFile(dir+"/"+e.Name(), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			tore = true
		}
	}
	if !tore {
		t.Fatal("no WAL segment found to tear")
	}

	_, addr2, stats := startDurable(t, 0, dir, addr)
	if stats.CorruptRecords == 0 {
		t.Fatal("torn tail not detected at replay")
	}
	vers, found, err := ScanVersions(bg, addr2, 0, keys, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !found[i] || vers[i] < acked[k] {
			t.Fatalf("key %s: found=%v v%d (acked v%d) after torn-tail restart", k, found[i], vers[i], acked[k])
		}
	}
}

// TestCrashRecoveryWithHints is the cluster-level claim: with 2
// replicas, writes keep flowing while one replica is dead; after
// restart + revival the replica converges to every acked write — the
// pre-crash ones from its own disk, the downtime window from hints.
func TestCrashRecoveryWithHints(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	dirs := []string{t.TempDir(), t.TempDir()}
	addrs := make([]string, 2)
	servers := make([]*Server, 2)
	for r := 0; r < 2; r++ {
		sid := m.Server(0, r)
		servers[sid], addrs[sid], _ = startDurable(t, 0, dirs[sid], "127.0.0.1:0")
	}
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("hint:%d", i)
		if err := c.Set(bg, keys[i], []byte("before"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	victim := m.Server(0, 1)
	servers[victim].Kill()

	// Writes during the outage: acked by the surviving replica, hinted
	// for the dead one.
	for i := 0; i < 30; i++ {
		if err := c.Set(bg, keys[i], []byte("during"), WriteOptions{}); err != nil {
			t.Fatalf("Set with one replica down: %v", err)
		}
	}

	_, _, stats := startDurable(t, 0, dirs[victim], addrs[victim])
	if stats.WALRecords == 0 {
		t.Fatal("victim replayed nothing")
	}

	waitUntil(t, "victim revival", func() bool { return !c.ReplicaDown(0, 1) })
	acked := map[string]uint64{}
	for _, k := range keys {
		acked[k], _ = c.WrittenVersion(k)
	}
	waitUntil(t, "hint replay convergence on the restarted replica", func() bool {
		return scanAtLeast(addrs[victim], 0, keys, acked)
	})
	if cv, err := CheckConvergence(bg, mustWithAddrs(t, m, addrs), keys, acked); err != nil || cv.Diverged+cv.Lost+cv.Absent > 0 {
		t.Fatalf("want every key found on every replica of its owner shard, all at one version, none below its acked one: %+v, %v", cv, err)
	}
}

// TestCrashRecoveryMidRebalance kills a durable migration donor while
// an AddShard is in flight, restarts it from disk, and requires the
// migration plus recovery to converge with zero acked-write loss: the
// copy pass tolerates the dead donor via its sibling replica, the epoch
// push retries until the restart, and the restarted replica rejoins
// with its pre-crash data already replayed.
func TestCrashRecoveryMidRebalance(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs := make([]string, base.NumServers())
	servers := make([]*Server, base.NumServers())
	dirs := make([]string, base.NumServers())
	for s := 0; s < base.Shards(); s++ {
		for r := 0; r < base.Replicas(); r++ {
			sid := base.Server(s, r)
			dirs[sid] = t.TempDir()
			servers[sid], addrs[sid], _ = startDurable(t, s, dirs[sid], "127.0.0.1:0")
		}
	}
	topo := mustWithAddrs(t, base, addrs)
	if err := PushTopology(bg, topo); err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster(nil, ClusterOptions{Topology: topo, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 120)
	for i := range keys {
		keys[i] = fmt.Sprintf("mid:%d", i)
		if err := c.Set(bg, keys[i], []byte(fmt.Sprintf("v-%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Kick off the migration, then kill one donor replica while it runs
	// and restart it from its data directory. Whichever migration phase
	// the kill lands in — copy scan, epoch push, catch-up — the outcome
	// contract is the same: AddShard succeeds and no acked write is lost.
	newID := topo.NextShardID()
	newAddrs := make([]string, topo.Replicas())
	for r := range newAddrs {
		_, newAddrs[r], _ = startDurable(t, newID, t.TempDir(), "127.0.0.1:0")
	}
	victim := base.Server(0, 1)
	done := make(chan error, 1)
	var grown *cluster.ShardTopology
	go func() {
		var aerr error
		grown, aerr = AddShard(bg, topo, newAddrs, RebalanceOptions{Logf: t.Logf})
		done <- aerr
	}()
	servers[victim].Kill()
	_, _, stats := startDurable(t, 0, dirs[victim], addrs[victim])
	if stats.SnapshotIndex == 0 && stats.WALRecords == 0 {
		t.Fatal("donor restarted with empty disk state")
	}
	if err := <-done; err != nil {
		t.Fatalf("AddShard with a crashing donor: %v", err)
	}

	// The restarted donor lost its in-memory topology with the crash;
	// in production the next rebalance or an operator push re-delivers
	// it. Deliver it here so the per-key ownership checks come back.
	if err := PushTopology(bg, grown); err != nil {
		t.Fatalf("re-push topology after restart: %v", err)
	}

	acked := map[string]uint64{}
	for _, k := range keys {
		acked[k], _ = c.WrittenVersion(k)
	}
	// Every key on every replica of its (possibly new) owner shard, at
	// at least its acked version.
	waitUntil(t, "post-rebalance convergence", func() bool {
		for _, k := range keys {
			sh := grown.ShardOfKey(k)
			for r := 0; r < grown.Replicas(); r++ {
				if !scanAtLeast(grown.Addr(grown.Server(sh, r)), sh, []string{k}, acked) {
					return false
				}
			}
		}
		return true
	})
	if cv, err := CheckConvergence(bg, grown, keys, acked); err != nil || cv.Diverged+cv.Lost+cv.Absent > 0 {
		t.Fatalf("want every key found on every replica of its owner shard, all at one version, none below its acked one: %+v, %v", cv, err)
	}
}

// TestDurableServerGracefulClose asserts the Close path flushes and
// snapshots: the next open recovers everything from the snapshot with
// an empty WAL tail.
func TestDurableServerGracefulClose(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	dir := t.TempDir()
	srv, addr, _ := startDurable(t, 0, dir, "127.0.0.1:0")
	c, err := DialCluster([]string{addr}, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := c.Set(bg, fmt.Sprintf("g:%d", i), []byte("v"), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	srv.Close()

	_, addr2, stats := startDurable(t, 0, dir, "127.0.0.1:0")
	if stats.SnapshotIndex == 0 {
		t.Fatal("graceful Close wrote no final snapshot")
	}
	if stats.WALRecords != 0 {
		t.Fatalf("graceful Close left %d WAL records outside the snapshot", stats.WALRecords)
	}
	if stats.SnapshotEntries != 40 {
		t.Fatalf("snapshot restored %d entries, want 40", stats.SnapshotEntries)
	}
	_, found, err := ScanVersions(bg, addr2, 0, []string{"g:0", "g:39"}, 5*time.Second)
	if err != nil || !found[0] || !found[1] {
		t.Fatalf("data missing after graceful restart: found=%v err=%v", found, err)
	}
}

func mustWithAddrs(t *testing.T, m *cluster.ShardTopology, addrs []string) *cluster.ShardTopology {
	t.Helper()
	topo, err := m.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// startFaulty starts a 1×1 durable deployment whose disk the returned
// injector controls, and dials it (one connection: reads and writes
// share it).
func startFaulty(t *testing.T) (*Cluster, *kv.DiskFaultInjector) {
	t.Helper()
	fault := kv.NewDiskFaultInjector()
	srv, _, err := NewDurableServer(kv.New(0), ServerOptions{
		Workers: 2, DataDir: t.TempDir(), Fsync: kv.FsyncAlways, DiskFault: fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Kill) // Kill, not Close: a test may leave an fsync stalled
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{Topology: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fault
}

// TestReadNotBehindWriteFsync pins the connection loop's split of a
// durable write: the write is applied and logged in arrival order, but
// its fsync is waited for off the loop, so a read that arrives behind
// it on the same connection is answered while the disk is still busy —
// and the write is not acknowledged until the disk is done.
func TestReadNotBehindWriteFsync(t *testing.T) {
	c, fault := startFaulty(t)
	if err := c.Set(bg, "old", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	fault.StallFsyncs(1)
	acked := make(chan error, 1)
	go func() { acked <- c.Set(bg, "new", []byte("w"), WriteOptions{}) }()
	waitUntil(t, "the write's fsync to stall", func() bool { return fault.StalledFsyncs() == 1 })

	v, found, err := c.Get(bg, "old", ReadOptions{Timeout: 5 * time.Second})
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("read behind a stalled fsync: %q found=%v err=%v", v, found, err)
	}
	select {
	case err := <-acked:
		t.Fatalf("write acknowledged (err=%v) before its fsync finished", err)
	default:
	}
	fault.Release()
	if err := <-acked; err != nil {
		t.Fatalf("write after release: %v", err)
	}
}

// TestFsyncFailureDropsUnackedWrite: when the fsync a staged write waits
// on fails, the write is never acknowledged and the connection drops.
func TestFsyncFailureDropsUnackedWrite(t *testing.T) {
	c, fault := startFaulty(t)
	fault.FailFsyncs(1)
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{Timeout: 5 * time.Second}); err == nil {
		t.Fatal("write acknowledged although its fsync failed")
	}
	waitUntil(t, "the replica to be marked down", func() bool { return c.ReplicaDown(0, 0) })
}
