package netstore

// End-to-end tests of epoch-versioned topology and live rebalancing:
// scale-out (AddShard) and scale-in (RemoveShard) under concurrent
// reads and writes, with zero lost acknowledged writes and a post-run
// convergence scan, plus focused tests of the server's per-key
// ownership checks and the client's NotOwner-driven refresh.

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
	"github.com/brb-repro/brb/internal/wire"
)

// startShardServers launches n shard-checking servers for one shard on
// loopback, returning their addresses (used to grow a cluster mid-test).
func startShardServers(t *testing.T, shardID, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		srv := NewServer(kv.New(0), ServerOptions{Workers: 2, Shard: shardID, CheckShard: true})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		addrs[r] = ln.Addr().String()
		t.Cleanup(srv.Close)
	}
	return addrs
}

// checkOwnerConvergence scans, for every key, ALL replicas of its owner
// shard under topo and asserts they are found with identical versions
// at least wantVer[key] — the "every key lands on exactly its new
// owner, zero lost writes" acceptance check.
func checkOwnerConvergence(t *testing.T, topo *cluster.ShardTopology, keys []string, wantVer map[string]uint64) {
	t.Helper()
	byShard := map[int][]string{}
	for _, k := range keys {
		sh := topo.ShardOfKey(k)
		byShard[sh] = append(byShard[sh], k)
	}
	for sh, ks := range byShard {
		var ref []uint64
		for r := 0; r < topo.Replicas(); r++ {
			addr := topo.Addr(topo.Server(sh, r))
			vers, found, err := ScanVersions(bg, addr, sh, ks, 5*time.Second)
			if err != nil {
				t.Fatalf("scan shard %d replica %d (%s): %v", sh, r, addr, err)
			}
			for i, k := range ks {
				if !found[i] {
					t.Fatalf("key %s missing on its owner shard %d replica %d", k, sh, r)
				}
				if want := wantVer[k]; want != 0 && vers[i] < want {
					t.Fatalf("key %s on shard %d replica %d has version %d < last acked %d (lost write)",
						k, sh, r, vers[i], want)
				}
			}
			if r == 0 {
				ref = vers
				continue
			}
			for i, k := range ks {
				if vers[i] != ref[i] {
					t.Fatalf("key %s diverged on shard %d: replica 0 v%d, replica %d v%d", k, sh, ref[i], r, vers[i])
				}
			}
		}
	}
}

// TestClusterLiveAddShard is the tentpole scenario: 3 shards serving
// concurrent reads and writes, a 4th shard added mid-run, and afterward
// every key lives on exactly its new owner with zero lost acknowledged
// writes — while the long-lived client crossed the epoch boundary
// without a restart.
func TestClusterLiveAddShard(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 2})
	addrs, _ := startShardedCluster(t, base, nil)
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

	const keys = 240
	allKeys := make([]string, keys)
	for i := range allKeys {
		allKeys[i] = fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, allKeys[i], []byte(fmt.Sprintf("v0-%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent load: 2 writers own disjoint key ranges (so "last acked
	// value" is well-defined) and 2 readers hammer random keys. No
	// operation may fail across the epoch change.
	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	var ops atomic.Uint64
	type lastWrite struct {
		mu   sync.Mutex
		vals map[string]string
	}
	last := &lastWrite{vals: make(map[string]string)}
	for w := 0; w < 2; w++ {
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
				k := allKeys[(w*keys/2+i%(keys/2))%keys]
				v := fmt.Sprintf("w%d-%d", w, i)
				if err := c.Set(bg, k, []byte(v), WriteOptions{}); err != nil {
					errCh <- fmt.Errorf("Set %s: %w", k, err)
					return
				}
				last.mu.Lock()
				last.vals[k] = v
				last.mu.Unlock()
				ops.Add(1)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ks := make([]string, 8)
				for j := range ks {
					ks[j] = allKeys[(r*31+i*7+j)%keys]
				}
				if _, err := c.Multiget(bg, ks, ReadOptions{}); err != nil {
					errCh <- fmt.Errorf("Multiget: %w", err)
					return
				}
				ops.Add(1)
			}
		}()
	}

	// Let the load demonstrably run, then grow the cluster under it.
	waitFor(t, 5*time.Second, "warm-up traffic", func() bool { return ops.Load() >= 200 })
	newID := topo.NextShardID()
	newAddrs := startShardServers(t, newID, topo.Replicas())
	grown, err := AddShard(bg, topo, newAddrs, RebalanceOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("AddShard: %v", err)
	}
	if grown.Epoch() != topo.Epoch()+1 || !grown.HasShard(newID) {
		t.Fatalf("grown topology wrong: epoch %d shards %v", grown.Epoch(), grown.ShardIDs())
	}

	// Keep the load crossing the boundary until the long-lived client
	// has learned the new epoch AND pushed real traffic through it.
	waitFor(t, 5*time.Second, "client learning the grown epoch under load", func() bool {
		return c.TopologyEpoch() == grown.Epoch()
	})
	crossed := ops.Load()
	waitFor(t, 5*time.Second, "post-grow traffic", func() bool { return ops.Load() >= crossed+200 })
	close(stop)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("operation failed across the epoch change: %v", err)
	}

	// The long-lived client learned the new epoch from NotOwner/stray
	// rejections alone.
	if got := c.TopologyEpoch(); got != grown.Epoch() {
		t.Fatalf("client stuck on epoch %d, cluster at %d", got, grown.Epoch())
	}
	if c.Stats().TopologyRefreshes == 0 {
		t.Fatal("client never refreshed its topology")
	}

	// The new shard actually owns keys (≈1/4 of the keyspace).
	movedToNew := 0
	for _, k := range allKeys {
		if grown.ShardOfKey(k) == newID {
			movedToNew++
		}
	}
	if movedToNew == 0 {
		t.Fatal("no key moved to the new shard; rebalance tested nothing")
	}

	// Every key reads back with its last acknowledged value through the
	// surviving client.
	res, err := c.Multiget(bg, allKeys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last.mu.Lock()
	defer last.mu.Unlock()
	for i, k := range allKeys {
		if !res.Found[i] {
			t.Fatalf("%s missing after rebalance", k)
		}
		if want, ok := last.vals[k]; ok && string(res.Values[i]) != want {
			t.Fatalf("%s = %q after rebalance, want last acked %q", k, res.Values[i], want)
		}
	}

	// Convergence: every key on exactly its new owner, all replicas
	// agreeing. (Write versions are internal to the client, so the scan
	// asserts found + replica agreement.)
	checkOwnerConvergence(t, grown, allKeys, nil)
}

// A migration onto a receiver that accepts connections but never reads
// must fail within its ctx instead of hanging on a blocked write. The
// donor's moving keys are more bytes than the socket buffers and the
// connection's coalescing buffer absorb, so the replay's writes block;
// AddShard must give up soon after its 500ms deadline and publish no
// new epoch.
func TestAddShardWedgedReceiverFails(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	addrs, servers := startShardedCluster(t, base, nil)
	topo, err := base.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := PushTopology(bg, topo); err != nil {
		t.Fatal(err)
	}
	grown, err := topo.AddShard()
	if err != nil {
		t.Fatal(err)
	}
	// 256 moving keys × 64 KiB = 16 MiB bound for the new shard.
	value := make([]byte, 64<<10)
	for i, moving := 0, 0; moving < 256; i++ {
		if k := fmt.Sprintf("key:%d", i); grown.ShardOfKey(k) == topo.NextShardID() {
			servers[0].Store().Set(k, value)
			moving++
		}
	}

	ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = AddShard(ctx, topo, []string{wedgedListener(t)}, RebalanceOptions{Logf: t.Logf})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("AddShard onto a wedged receiver succeeded")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("AddShard took %v against a 500ms ctx", elapsed)
	}
	if got := servers[0].TopologyEpoch(); got != topo.Epoch() {
		t.Fatalf("failed migration published epoch %d (was %d)", got, topo.Epoch())
	}
}

// TestClusterLiveRemoveShard drains a shard under load: its keys
// migrate onto the survivors, the long-lived client re-routes, and the
// retired shard's servers reject everything.
func TestClusterLiveRemoveShard(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 2})
	addrs, _ := startShardedCluster(t, base, nil)
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

	const keys = 180
	allKeys := make([]string, keys)
	for i := range allKeys {
		allKeys[i] = fmt.Sprintf("key:%d", i)
		if err := c.Set(bg, allKeys[i], []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	const victim = 2
	victimKeys := 0
	for _, k := range allKeys {
		if topo.ShardOfKey(k) == victim {
			victimKeys++
		}
	}
	if victimKeys == 0 {
		t.Fatal("victim shard holds no keys; removal tests nothing")
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	var ops atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Multiget(bg, []string{allKeys[i%keys]}, ReadOptions{}); err != nil {
				errCh <- err
				return
			}
			ops.Add(1)
		}
	}()

	waitFor(t, 5*time.Second, "warm-up traffic", func() bool { return ops.Load() >= 200 })
	shrunk, err := RemoveShard(bg, topo, victim, RebalanceOptions{Logf: t.Logf})
	if err != nil {
		t.Fatalf("RemoveShard: %v", err)
	}
	if shrunk.HasShard(victim) || shrunk.Shards() != 2 {
		t.Fatalf("shrunk topology wrong: %v", shrunk.ShardIDs())
	}
	// Keep reads crossing the removal until the client has learned the
	// shrunk epoch and pushed real traffic through it.
	waitFor(t, 5*time.Second, "client learning the shrunk epoch under load", func() bool {
		return c.TopologyEpoch() == shrunk.Epoch()
	})
	crossed := ops.Load()
	waitFor(t, 5*time.Second, "post-shrink traffic", func() bool { return ops.Load() >= crossed+200 })
	close(stop)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatalf("read failed across shard removal: %v", err)
	}

	if got := c.TopologyEpoch(); got != shrunk.Epoch() {
		t.Fatalf("client stuck on epoch %d, cluster at %d", got, shrunk.Epoch())
	}
	res, err := c.Multiget(bg, allKeys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range allKeys {
		if !res.Found[i] || string(res.Values[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s wrong after removal: found=%v val=%q", k, res.Found[i], res.Values[i])
		}
	}
	checkOwnerConvergence(t, shrunk, allKeys, nil)

	// The retired shard's servers hold the new topology and own nothing:
	// direct scans there must be rejected, proving reads can no longer
	// land on the drained shard.
	if _, _, err := ScanVersions(bg, topo.Addr(topo.Server(victim, 0)), victim, allKeys[:1], time.Second); err == nil {
		t.Fatal("retired server still serves reads for its old shard")
	}
}

// TestServerPerKeyOwnership exercises the wire-level ownership checks
// directly: a server holding a topology marks stray keys per key in
// batches (serving the rest) and rejects writes with NotOwner.
func TestServerPerKeyOwnership(t *testing.T) {
	topo := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	// One real server for shard 0; shard 1's server is never contacted.
	srv := NewServer(kv.New(0), ServerOptions{Workers: 1, Shard: 0, CheckShard: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	if !srv.SetTopology(topo) {
		t.Fatal("topology not installed")
	}
	if srv.SetTopology(topo) {
		t.Fatal("same-epoch topology re-installed")
	}
	if srv.TopologyEpoch() != topo.Epoch() {
		t.Fatalf("server epoch %d, want %d", srv.TopologyEpoch(), topo.Epoch())
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := newServerConn(conn)
	defer sc.close()

	// Find one key per shard.
	var owned, foreign string
	for i := 0; owned == "" || foreign == ""; i++ {
		k := fmt.Sprintf("key:%d", i)
		if topo.ShardOfKey(k) == 0 && owned == "" {
			owned = k
		}
		if topo.ShardOfKey(k) == 1 && foreign == "" {
			foreign = k
		}
	}

	// Writes: owned accepted, foreign rejected with the owner hint.
	rt := writeRoute{shard: 0, epoch: topo.Epoch()}
	if err := sc.write(bg, owned, []byte("mine"), 7, false, rt); err != nil {
		t.Fatalf("owned Set rejected: %v", err)
	}
	err = sc.write(bg, foreign, []byte("stray"), 8, false, rt)
	var noe *NotOwnerError
	if !errors.As(err, &noe) {
		t.Fatalf("foreign Set err = %v, want NotOwnerError", err)
	}
	if noe.OwnerShard != 1 || noe.Epoch != topo.Epoch() {
		t.Fatalf("NotOwner hint = %+v, want owner 1 epoch %d", noe, topo.Epoch())
	}
	if err := sc.write(bg, foreign, nil, 9, true, rt); err == nil {
		t.Fatal("foreign Del accepted")
	}
	if _, ok := srv.Store().Get(foreign); ok {
		t.Fatal("rejected write reached the store")
	}

	// Batch: the owned key is served, the foreign one marked stray (not
	// "missing"), and the response names the server's epoch.
	resp, err := sc.batch(bg, &wire.BatchReq{
		Shard: 0, Epoch: topo.Epoch(),
		Priority: []int64{0, 0}, Keys: []string{owned, foreign},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != topo.Epoch() {
		t.Fatalf("batch response epoch %d, want %d", resp.Epoch, topo.Epoch())
	}
	if resp.Stray == nil || resp.Stray[0] || !resp.Stray[1] {
		t.Fatalf("stray marks = %v, want [false true]", resp.Stray)
	}
	if !resp.Found[0] || string(resp.Values[0]) != "mine" {
		t.Fatalf("owned key not served: found=%v val=%q", resp.Found[0], resp.Values[0])
	}
	if resp.Found[1] {
		t.Fatal("stray key reported found")
	}

	// All-stray batches answer immediately without scheduling.
	resp, err = sc.batch(bg, &wire.BatchReq{
		Shard: 0, Epoch: topo.Epoch(),
		Priority: []int64{0}, Keys: []string{foreign},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stray == nil || !resp.Stray[0] {
		t.Fatalf("all-stray batch served: %+v", resp)
	}
}

// Regression: a topology pushed over the wire is decoded off a pooled
// frame — the installed topology's address strings must not share the
// frame's bytes, or later frames reusing the buffer corrupt them.
func TestTopoPushDoesNotAliasFrame(t *testing.T) {
	srv := NewServer(kv.New(0), ServerOptions{Workers: 1, Shard: 0, CheckShard: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)

	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	topo, err := base.WithAddrs([]string{"10.0.0.1:7001", "10.0.0.2:7001"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pushTopologyTo(bg, ln.Addr().String(), topo); err != nil {
		t.Fatal(err)
	}
	// Hammer the connection-handling path with frames that recycle the
	// pooled buffers the push rode in on.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := newServerConn(conn)
	defer sc.close()
	var owned string
	for i := 0; owned == ""; i++ {
		k := fmt.Sprintf("kkkkkkkkkkkkkkkkkkkkkkkk:%d", i)
		if topo.ShardOfKey(k) == 0 {
			owned = k
		}
	}
	for i := 0; i < 50; i++ {
		if err := sc.write(bg, owned, []byte("kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk"), uint64(i+1), false, writeRoute{shard: 0, epoch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	got := srv.Topology()
	if got == nil {
		t.Fatal("topology lost")
	}
	if a := got.Addr(0); a != "10.0.0.1:7001" {
		t.Fatalf("server topology address corrupted by frame reuse: %q", a)
	}
	if a := got.Addr(1); a != "10.0.0.2:7001" {
		t.Fatalf("server topology address corrupted by frame reuse: %q", a)
	}
}

// Regression: scan pages are size-bounded — a kv shard larger than one
// page splits across responses via the After continuation key instead
// of producing a frame that can outgrow wire.MaxFrame.
func TestScanStorePaging(t *testing.T) {
	store := kv.New(1) // everything in one kv shard
	const entries = 6
	for i := 0; i < entries; i++ {
		store.SetVersion(fmt.Sprintf("big:%d", i), make([]byte, 1<<20), uint64(i+1))
	}
	store.DeleteVersion("tomb", 99)
	srv := NewServer(store, ServerOptions{Workers: 1})
	defer srv.Close()

	seen := map[string]uint64{}
	cursor, after, pages := uint32(0), "", 0
	for {
		resp := srv.scanStore(1, cursor, after)
		pages++
		pageBytes := 0
		for i, k := range resp.Keys {
			if _, dup := seen[k]; dup {
				t.Fatalf("key %s scanned twice", k)
			}
			seen[k] = resp.Versions[i]
			pageBytes += len(k) + len(resp.Values[i])
		}
		if pageBytes > maxScanPageBytes+(1<<20) {
			t.Fatalf("page of %d bytes exceeds the bound", pageBytes)
		}
		if resp.NextCursor == wire.ScanDone {
			break
		}
		if resp.NextCursor == cursor {
			if len(resp.Keys) == 0 {
				t.Fatal("same-cursor page made no progress")
			}
			after = resp.Keys[len(resp.Keys)-1]
		} else {
			cursor, after = resp.NextCursor, ""
		}
		if pages > 100 {
			t.Fatal("scan never terminated")
		}
	}
	if pages < 2 {
		t.Fatalf("oversized shard served in %d page(s); want a split", pages)
	}
	if len(seen) != entries+1 {
		t.Fatalf("scan covered %d entries, want %d", len(seen), entries+1)
	}
	if v, ok := seen["tomb"]; !ok || v != 99 {
		t.Fatal("tombstone missing from paged scan")
	}
}

// Regression: a client dialed with the WRONG layout (1×1) against
// servers holding the real 2×2 topology must refresh to it — resizing
// its per-shard scorers to the fetched replica count instead of
// panicking — and then serve from the full cluster.
func TestClusterMisconfiguredLayoutSelfHeals(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 2})
	addrs, _ := startShardedCluster(t, base, nil)
	topo, err := base.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := PushTopology(bg, topo); err != nil {
		t.Fatal(err)
	}
	// Seed data through a correctly configured client.
	seed, err := DialCluster(nil, ClusterOptions{Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		if err := seed.Set(bg, keys[i], []byte(fmt.Sprintf("v%d", i)), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()

	// The misconfigured client believes the cluster is 1 shard × 1
	// replica, all behind server 0.
	wrong := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	c, err := DialCluster(addrs[:1], ClusterOptions{Topology: wrong, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Multiget(bg, keys, ReadOptions{})
	if err != nil {
		t.Fatalf("misconfigured client did not self-heal: %v", err)
	}
	for i, k := range keys {
		if !res.Found[i] || string(res.Values[i]) != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s wrong after self-heal: found=%v val=%q", k, res.Found[i], res.Values[i])
		}
	}
	if c.TopologyEpoch() != topo.Epoch() || c.Topology().Replicas() != 2 {
		t.Fatalf("client topology not healed: epoch %d replicas %d", c.TopologyEpoch(), c.Topology().Replicas())
	}
}

// TestClusterReaderAheadOfLaggingReplica pins the window RemoveShard
// opens between its pushes: the client already routes under the shrunk
// epoch, a surviving shard's replica 0 still holds the old one and
// rejects the keys it is about to inherit as strays — with an epoch
// BEHIND the client's. There is no newer topology to refresh to; the
// read must be served under the state the client has, by the sibling
// that holds it already, or by the laggard once the push lands.
func TestClusterReaderAheadOfLaggingReplica(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 3, Replicas: 2})
	addrs, servers := startShardedCluster(t, base, nil)
	old, err := base.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	shrunk, err := old.RemoveShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	// Keys the shrink moves, loaded where the copy pass would have put
	// them: on every replica of their new owner.
	var moved []string
	for i := 0; len(moved) < 16; i++ {
		k := fmt.Sprintf("key:%d", i)
		if old.ShardOfKey(k) != victim {
			continue
		}
		moved = append(moved, k)
		for _, sid := range shrunk.ReplicaServers(shrunk.ShardOfKey(k)) {
			servers[sid].Store().Set(k, []byte(k))
		}
	}
	for _, srv := range servers {
		srv.SetTopology(old)
	}
	read := func(c *Cluster) error {
		// On a fresh client every scorer is cold, so the first read's
		// sub-tasks meet replica 0 first (c3.Scorer.Best breaks ties by
		// index).
		res, err := c.Multiget(bg, moved, ReadOptions{})
		if err != nil {
			return err
		}
		for i, k := range moved {
			if !res.Found[i] || string(res.Values[i]) != k {
				return fmt.Errorf("%s: found=%v val=%q", k, res.Found[i], res.Values[i])
			}
		}
		return nil
	}

	c, err := DialCluster(nil, ClusterOptions{Topology: shrunk})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Every replica lags: the read goes round both, then waits out the
	// push. It lands on the siblings once each replica has rejected each
	// key.
	done := make(chan error, 1)
	go func() { done <- read(c) }()
	waitFor(t, 5*time.Second, "both replicas of both shards rejecting the keys", func() bool {
		select {
		case err := <-done:
			t.Fatalf("read gave up while every replica lagged: %v", err)
		default:
		}
		return c.Stats().StrayRetries >= 2*uint64(len(moved))
	})
	for _, sh := range shrunk.ShardIDs() {
		servers[shrunk.Server(sh, 1)].SetTopology(shrunk)
	}
	if err := <-done; err != nil {
		t.Fatalf("read while every replica lagged: %v", err)
	}
	// Replica 0 still lags, its sibling holds the epoch: served at once.
	if err := read(c); err != nil {
		t.Fatalf("read through a lagging replica: %v", err)
	}
	if got := c.TopologyEpoch(); got != shrunk.Epoch() {
		t.Fatalf("client moved to epoch %d, want %d", got, shrunk.Epoch())
	}
}

// TestStrayRebucketSplitsCost: keys a server rejects as strays go around
// again at their share of the batch's forecast cost, split per key over
// the shards they re-bucket onto. The client holds the epoch-1 one-shard
// topology, the servers the epoch-3 three-shard one, so its one batch to
// shard 0 comes back with the strays of two other shards. The forecast
// scale folds in only fully served batches, so its cost total is what
// the re-bucketed strays were charged. Charging every bucket the whole
// batch's cost would claim up to three times their share.
func TestStrayRebucketSplitsCost(t *testing.T) {
	base, err := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1}).
		WithAddrs(startShardServers(t, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	grown := base
	for sh := 1; sh <= 2; sh++ {
		if grown, err = grown.AddShard(startShardServers(t, sh, 1)...); err != nil {
			t.Fatal(err)
		}
	}
	if err := PushTopology(bg, grown); err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster(nil, ClusterOptions{Topology: base, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]string, 60)
	perShard := make([]int, grown.Shards())
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
		perShard[grown.ShardOfKey(keys[i])]++
	}
	if perShard[1] == 0 || perShard[2] == 0 {
		t.Fatalf("keys per shard %v: the strays would not re-bucket two ways", perShard)
	}
	if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if c.TopologyEpoch() != grown.Epoch() {
		t.Fatalf("client at epoch %d after the stray retry, want %d", c.TopologyEpoch(), grown.Epoch())
	}
	strays := perShard[1] + perShard[2]
	cost := c.opts.CostModel.Estimate(defaultSize) * int64(len(keys))
	// Integer shares round down, by less than a nanosecond per bucket.
	want := cost * int64(strays) / int64(len(keys))
	if got := c.scale.cost.Load(); got > want || got < want-2 {
		t.Fatalf("re-bucketed strays charged %d, want their %d/%d share of %d = %d",
			got, strays, len(keys), cost, want)
	}
}
