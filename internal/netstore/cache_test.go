package netstore

// Hot-key cache tests: the version mechanics, the admission policy
// (eviction order, scan resistance, readmission, aging, a random-op
// invariant walk), the Cluster coherence rules (local-write
// invalidation, written floor, epoch purge), the partial-result fill
// regression, and a -race coherence hammer asserting a cache hit never
// serves a value older than an acknowledged local write.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/randx"
)

func TestHotKeyCacheVersioning(t *testing.T) {
	hc := newHotKeyCache(4)

	// Version 0 is not cacheable (could never be validated).
	hc.put("k", []byte("v"), 0)
	if _, ok := hc.get("k", 0); ok {
		t.Fatal("unversioned value was cached")
	}

	hc.put("k", []byte("v5"), 5)
	if v, ok := hc.get("k", 0); !ok || string(v) != "v5" {
		t.Fatalf("get = %q ok=%v", v, ok)
	}
	// An older fill loses against a newer cached version, whatever the
	// arrival order.
	hc.put("k", []byte("v3"), 3)
	if v, ok := hc.get("k", 0); !ok || string(v) != "v5" {
		t.Fatalf("older fill overwrote newer entry: %q ok=%v", v, ok)
	}
	hc.put("k", []byte("v8"), 8)
	if v, ok := hc.get("k", 0); !ok || string(v) != "v8" {
		t.Fatalf("newer fill lost: %q ok=%v", v, ok)
	}

	// The minVer floor drops entries older than an acked write.
	if _, ok := hc.get("k", 9); ok {
		t.Fatal("entry below the written floor was served")
	}
	if _, ok := hc.get("k", 0); ok {
		t.Fatal("floor-dropped entry still present")
	}

	// noteVersion evicts on proof of a newer write, keeps otherwise.
	hc.put("k", []byte("v10"), 10)
	hc.noteVersion("k", 10)
	if _, ok := hc.get("k", 0); !ok {
		t.Fatal("noteVersion with the cached version evicted the entry")
	}
	hc.noteVersion("k", 11)
	if _, ok := hc.get("k", 0); ok {
		t.Fatal("noteVersion with a newer version kept the stale entry")
	}

	// The served value is the caller's copy: mutating it must not
	// corrupt the cached bytes.
	hc.put("c", []byte("abc"), 1)
	v, _ := hc.get("c", 0)
	v[0] = 'X'
	if v2, _ := hc.get("c", 0); string(v2) != "abc" {
		t.Fatalf("caller mutation reached the cache: %q", v2)
	}
}

// resident reports whether key has an entry, without the lookup get
// would count in the admission sketch.
func (hc *hotKeyCache) resident(key string) bool {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return hc.ents[key] != nil
}

// readThrough is one read the way Cluster.Multiget does it: look the key
// up, and on a miss offer the fetched value to the cache.
func readThrough(hc *hotKeyCache, key string, ver uint64) (hit bool) {
	if _, hit = hc.get(key, 0); !hit {
		hc.put(key, []byte(key), ver)
	}
	return hit
}

// What eviction still promises under admission: the size never exceeds
// the capacity, a full cache refuses a key it has not seen asked for
// more often than its LRU tail, an admitted key displaces exactly the
// least recently used entry, and evicts counts only those displacements.
func TestHotKeyCacheLRUEviction(t *testing.T) {
	hc := newHotKeyCache(3)
	for i := 1; i <= 3; i++ {
		hc.put(fmt.Sprintf("k%d", i), []byte("v"), uint64(i))
	}
	if hc.size() != 3 || hc.evicts.Load() != 0 || hc.rejects.Load() != 0 {
		t.Fatalf("filling free slots: size=%d evicts=%d rejects=%d, want 3 0 0", hc.size(), hc.evicts.Load(), hc.rejects.Load())
	}

	// Full. A key nobody has looked up ties with the tail and is refused.
	hc.put("k4", []byte("v"), 4)
	if hc.resident("k4") || hc.size() != 3 {
		t.Fatalf("a never-read key was admitted to a full cache (size %d)", hc.size())
	}
	if r, e := hc.rejects.Load(), hc.evicts.Load(); r != 1 || e != 0 {
		t.Fatalf("rejects=%d evicts=%d after one refused fill, want 1 0", r, e)
	}

	// Touch k1 so k2 becomes the least recently used (k3 was filled
	// after it), then ask for k4 often enough to outrank k2.
	if _, ok := hc.get("k1", 0); !ok {
		t.Fatal("k1 missing")
	}
	hc.get("k4", 0)
	hc.get("k4", 0)
	hc.put("k4", []byte("v"), 4)
	if hc.resident("k2") {
		t.Fatal("LRU victim k2 survived the eviction")
	}
	for _, k := range []string{"k1", "k3", "k4"} {
		if !hc.resident(k) {
			t.Fatalf("%s evicted, want k2 (the LRU) evicted", k)
		}
	}
	if r, e := hc.rejects.Load(), hc.evicts.Load(); r != 1 || e != 1 {
		t.Fatalf("rejects=%d evicts=%d after one admission, want 1 1", r, e)
	}

	// A slot freed by invalidation is filled without a contest.
	hc.invalidate("k3")
	if _, ok := hc.get("k3", 0); ok {
		t.Fatal("invalidated entry served")
	}
	hc.put("k5", []byte("v"), 5)
	if !hc.resident("k5") || hc.size() != 3 || hc.evicts.Load() != 1 {
		t.Fatalf("fill of a free slot: resident=%v size=%d evicts=%d, want true 3 1", hc.resident("k5"), hc.size(), hc.evicts.Load())
	}
	hc.purge()
	if hc.size() != 0 {
		t.Fatalf("size after purge = %d", hc.size())
	}
}

// The reason for admission: one pass over ten capacities' worth of
// once-read keys must not cost the hot set its slots. Under a plain LRU
// the scan evicts all of it.
func TestHotKeyCacheScanResistance(t *testing.T) {
	const capacity = 64
	hc := newHotKeyCache(capacity)
	hot := make([]string, capacity/2)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot:%d", i)
	}
	readHot := func(rounds int) {
		for r := 0; r < rounds; r++ {
			for _, k := range hot {
				readThrough(hc, k, 1)
			}
		}
	}
	readHot(20)
	for i := 0; i < 10*capacity; i++ {
		readThrough(hc, fmt.Sprintf("cold:%d", i), 1)
	}
	kept := 0
	for _, k := range hot {
		if hc.resident(k) {
			kept++
		}
	}
	if kept*10 < len(hot)*9 {
		t.Fatalf("%d of %d hot keys survived the scan, want ≥ 90 %%", kept, len(hot))
	}
	if hc.size() > capacity {
		t.Fatalf("size %d exceeds capacity %d", hc.size(), capacity)
	}
	if hc.rejects.Load() == 0 {
		t.Fatal("the scan was never refused")
	}
	// And the hot set is still served.
	hits := 0
	for _, k := range hot {
		if readThrough(hc, k, 1) {
			hits++
		}
	}
	if hits != kept {
		t.Fatalf("%d resident hot keys but %d hits", kept, hits)
	}
}

// A hot key dropped by a local write must get its slot back on its next
// fill, even if a cold key took the freed slot meanwhile: 5 % of the
// interactive ops are writes, and they hit the hottest keys most.
func TestHotKeyCacheReadmitsAfterInvalidate(t *testing.T) {
	const capacity = 8
	hc := newHotKeyCache(capacity)
	hot := make([]string, capacity)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot:%d", i)
	}
	for r := 0; r < 6; r++ {
		for _, k := range hot {
			readThrough(hc, k, 1)
		}
	}
	hc.invalidate(hot[0])
	readThrough(hc, "cold", 1) // takes the free slot
	if !hc.resident("cold") || hc.size() != capacity {
		t.Fatalf("cold key resident=%v size=%d, want the free slot taken", hc.resident("cold"), hc.size())
	}
	if readThrough(hc, hot[0], 2) {
		t.Fatal("invalidated key served before its refill")
	}
	if !hc.resident(hot[0]) {
		t.Fatal("hot key was refused its slot after a local write dropped it")
	}
	if v, ok := hc.get(hot[0], 2); !ok || string(v) != hot[0] {
		t.Fatalf("refilled hot key: %q ok=%v", v, ok)
	}
}

// Popularity is aged, not accumulated: when the hot set moves from A to
// B, B takes the cache over within a few aging periods however long A
// was hot, and the sketch stays the size it was built.
func TestHotKeyCacheSketchAges(t *testing.T) {
	const capacity = 32
	hc := newHotKeyCache(capacity)
	words := len(hc.sketch.words)
	set := func(name string) []string {
		ks := make([]string, capacity)
		for i := range ks {
			ks[i] = fmt.Sprintf("%s:%d", name, i)
		}
		return ks
	}
	a, b := set("a"), set("b")
	for r := 0; r < 100; r++ {
		for _, k := range a {
			readThrough(hc, k, 1)
		}
	}
	residentOf := func(ks []string) (n int) {
		for _, k := range ks {
			if hc.resident(k) {
				n++
			}
		}
		return n
	}
	if got := residentOf(a); got != capacity {
		t.Fatalf("%d of %d keys of set A resident after 100 rounds", got, capacity)
	}
	// Four aging periods of B-only reads.
	touches := 0
	for touches < 4*sketchAgeTouches*capacity {
		for _, k := range b {
			readThrough(hc, k, 1)
			touches++
		}
	}
	if got := residentOf(b); got*10 < capacity*9 {
		t.Fatalf("%d of %d keys of set B resident after %d touches; the old hot set still holds %d slots", got, capacity, touches, residentOf(a))
	}
	// A long tail of distinct keys: the sketch does not grow with them.
	for i := 0; i < 100*capacity; i++ {
		readThrough(hc, fmt.Sprintf("tail:%d", i), 1)
	}
	if len(hc.sketch.words) != words || cap(hc.sketch.words) != words {
		t.Fatalf("sketch grew from %d to %d words", words, len(hc.sketch.words))
	}
	if hc.size() > capacity {
		t.Fatalf("size %d exceeds capacity %d", hc.size(), capacity)
	}
}

// checkInvariants walks the LRU list both ways against the map.
func (hc *hotKeyCache) checkInvariants(t *testing.T) {
	t.Helper()
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if len(hc.ents) > hc.capacity {
		t.Fatalf("%d entries in a cache of %d", len(hc.ents), hc.capacity)
	}
	n := 0
	var prev *cacheEnt
	for e := hc.head; e != nil; prev, e = e, e.next {
		if e.prev != prev {
			t.Fatalf("entry %q: prev link broken", e.key)
		}
		if hc.ents[e.key] != e {
			t.Fatalf("entry %q on the list but not in the map", e.key)
		}
		if n++; n > len(hc.ents) {
			t.Fatal("list longer than the map (cycle?)")
		}
	}
	if prev != hc.tail {
		t.Fatal("tail does not end the list")
	}
	if n != len(hc.ents) {
		t.Fatalf("list has %d entries, map %d", n, len(hc.ents))
	}
}

// A seeded random walk over every operation. Values carry their key and
// version, so each hit can be checked: it is a value that was put under
// that key, and never one below the floor the read asked for.
func TestHotKeyCacheRandomOps(t *testing.T) {
	const (
		capacity = 16
		universe = 4 * capacity
		steps    = 50000
	)
	for seed := uint64(1); seed <= 4; seed++ {
		r := randx.New(seed)
		hc := newHotKeyCache(capacity)
		latest := make([]uint64, universe) // the store's version per key
		floor := make([]uint64, universe)  // this client's written floor
		for k := range latest {
			latest[k] = 1
		}
		// Zipf-ish skew so some keys are hot enough to be admitted.
		pick := func() int { return int(float64(universe) * r.Float64() * r.Float64()) }
		for step := 0; step < steps; step++ {
			k := pick()
			key := strconv.Itoa(k)
			switch op := r.Intn(100); {
			case op < 60: // read through, possibly racing an older fill
				v, ok := hc.get(key, floor[k])
				if ok {
					var gotKey int
					var gotVer uint64
					if _, err := fmt.Sscanf(string(v), "%d@%d", &gotKey, &gotVer); err != nil || gotKey != k {
						t.Fatalf("seed %d step %d: get(%s) = %q", seed, step, key, v)
					}
					if gotVer < floor[k] {
						t.Fatalf("seed %d step %d: served %s at version %d below the floor %d", seed, step, key, gotVer, floor[k])
					}
					break
				}
				ver := latest[k]
				if ver > 1 && r.Intn(4) == 0 {
					ver-- // a lagging replica answered
				}
				if ver >= floor[k] { // Cluster.cacheFill's gate
					hc.put(key, []byte(fmt.Sprintf("%d@%d", k, ver)), ver)
				}
			case op < 80: // local write
				latest[k]++
				floor[k] = latest[k]
				hc.invalidate(key)
			case op < 90: // another client's write, then proof of it on the wire
				latest[k]++
				hc.noteVersion(key, latest[k])
			case op < 99:
				hc.noteVersion(key, latest[k])
			default:
				hc.purge()
			}
			if step%64 == 0 {
				hc.checkInvariants(t)
			}
		}
		hc.checkInvariants(t)
		if hc.hits.Load() == 0 || hc.rejects.Load() == 0 || hc.evicts.Load() == 0 {
			t.Fatalf("seed %d: the walk did not exercise the cache: hits=%d rejects=%d evicts=%d", seed, hc.hits.Load(), hc.rejects.Load(), hc.evicts.Load())
		}
	}
}

// An equal-version fill of a resident key renews its recency and
// nothing else: no copy, no fill counted.
func TestHotKeyCacheEqualVersionRefresh(t *testing.T) {
	hc := newHotKeyCache(2)
	hc.put("a", []byte("a1"), 1)
	hc.put("b", []byte("b1"), 1)
	hc.get("c", 0)
	hc.get("c", 0) // c outranks either resident
	fills := hc.fills.Load()
	hc.put("a", []byte("XX"), 1) // same version: a becomes most recent, b the tail
	if got := hc.fills.Load(); got != fills {
		t.Fatalf("equal-version refresh counted %d fills", got-fills)
	}
	hc.put("c", []byte("c1"), 1)
	if !hc.resident("a") || hc.resident("b") {
		t.Fatalf("after the refresh the victim should be b: a resident=%v b resident=%v", hc.resident("a"), hc.resident("b"))
	}
	if v, _ := hc.get("a", 0); string(v) != "a1" {
		t.Fatalf("equal-version refresh replaced the value: %q", v)
	}
}

// Hits copy the value after the lock is dropped, which is safe only
// because a refresh replaces an entry's slice and never writes into it.
// Readers check every copy is one whole value; -race checks the rest.
func TestHotKeyCacheGetVsRefresh(t *testing.T) {
	const size = 16 << 10
	hc := newHotKeyCache(4)
	value := func(ver uint64) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = byte(ver)
		}
		return v
	}
	hc.put("k", value(1), 1)
	const refreshes = 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v, ok := hc.get("k", 0)
				if !ok || len(v) != size {
					t.Errorf("get = %d bytes ok=%v", len(v), ok)
					return
				}
				for _, b := range v[1:] {
					if b != v[0] {
						t.Errorf("torn value: byte %d beside byte %d", b, v[0])
						return
					}
				}
				v[0]++ // the copy is the caller's
			}
		}()
	}
	for ver := uint64(2); ver < refreshes; ver++ {
		hc.put("k", value(ver), ver)
	}
	close(done)
	wg.Wait()
}

// A hit allocates the served copy and nothing else.
func TestHotKeyCacheHitAllocs(t *testing.T) {
	hc := newHotKeyCache(8)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		hc.put(k, make([]byte, 512), 1)
	}
	floor := func(string) uint64 { return 0 }
	vals := make([][]byte, len(keys))
	found := make([]bool, len(keys))
	allocs := testing.AllocsPerRun(200, func() {
		clear(found)
		if hits := hc.serve(keys, floor, vals, found); hits != len(keys) {
			t.Fatalf("%d hits, want %d", hits, len(keys))
		}
	})
	if allocs != float64(len(keys)) {
		t.Fatalf("%v allocations for %d hits, want one (the copy) per hit", allocs, len(keys))
	}
}

// cacheCluster builds a 1-shard × 1-replica cluster with the hot-key
// cache enabled and one key loaded.
func cacheCluster(t *testing.T, cacheSize int) (*Cluster, *Server) {
	t.Helper()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	addrs, servers := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1, CacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, servers[0]
}

// Hot keys are served locally: after the first fetch fills the cache,
// repeat reads never reach the server.
func TestClusterCacheServesHotKeys(t *testing.T) {
	c, srv := cacheCluster(t, 8)
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if v, found, err := c.Get(bg, "k", ReadOptions{}); err != nil || !found || string(v) != "v" {
		t.Fatalf("first Get = %q found=%v err=%v", v, found, err)
	}
	if fills := c.Stats().CacheFills; fills != 1 {
		t.Fatalf("fills after first read = %d, want 1", fills)
	}
	served := srv.Stats().Served
	for i := 0; i < 5; i++ {
		v, found, err := c.Get(bg, "k", ReadOptions{})
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("cached Get = %q found=%v err=%v", v, found, err)
		}
		// The caller owns the returned slice; mutating it must not
		// poison later hits.
		v[0] = 'X'
	}
	if got := srv.Stats().Served - served; got != 0 {
		t.Fatalf("server serviced %d keys during cached reads, want 0", got)
	}
	if hits := c.Stats().CacheHits; hits != 5 {
		t.Fatalf("cache hits = %d, want 5", hits)
	}
	if size := c.CacheSize(); size != 1 {
		t.Fatalf("cache size = %d, want 1", size)
	}
}

// A multiget mixing cached and uncached keys fetches only the misses,
// and a fully cached multiget touches no socket at all.
func TestClusterMultigetPartialCacheHit(t *testing.T) {
	c, srv := cacheCluster(t, 8)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if err := c.Set(bg, k, []byte("val-"+k), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm two of the four.
	for _, k := range keys[:2] {
		if _, _, err := c.Get(bg, k, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	served := srv.Stats().Served
	res, err := c.Multiget(bg, keys, ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !res.Found[i] || string(res.Values[i]) != "val-"+k {
			t.Fatalf("key %s: found=%v val=%q", k, res.Found[i], res.Values[i])
		}
	}
	if got := srv.Stats().Served - served; got != 2 {
		t.Fatalf("server serviced %d keys, want only the 2 misses", got)
	}

	// Now everything is warm: the same multiget is served entirely from
	// the cache.
	served = srv.Stats().Served
	if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Served - served; got != 0 {
		t.Fatalf("fully cached multiget serviced %d keys on the server", got)
	}
}

// An acknowledged local Set/Delete invalidates the key: the next read
// observes the new state, never the cached pre-write value.
func TestClusterCacheInvalidatedByLocalWrites(t *testing.T) {
	c, _ := cacheCluster(t, 8)
	if err := c.Set(bg, "k", []byte("v1"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, "k", ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Set(bg, "k", []byte("v2"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := c.Get(bg, "k", ReadOptions{}); !found || string(v) != "v2" {
		t.Fatalf("read after overwrite = %q found=%v, want v2", v, found)
	}
	if err := c.Delete(bg, "k", WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := c.Get(bg, "k", ReadOptions{}); found {
		t.Fatal("read after delete still found the key")
	}
	if invals := c.Stats().CacheInvalidations; invals < 2 {
		t.Fatalf("invalidations = %d, want at least 2 (the Set and the Delete)", invals)
	}
}

// A topology epoch change voids every entry's provenance: the install
// purges the cache.
func TestClusterCachePurgedOnEpochChange(t *testing.T) {
	base := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, _ := startShardedCluster(t, base, nil)
	topo, err := base.WithAddrs(addrs)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialCluster(nil, ClusterOptions{Topology: topo, ProbeInterval: -1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key owned by shard 0 stays on shard 0 after shard 1 is removed,
	// so reads remain valid across the epoch change.
	var k0 string
	for i := 0; k0 == ""; i++ {
		if k := fmt.Sprintf("key:%d", i); topo.ShardOfKey(k) == 0 {
			k0 = k
		}
	}
	if err := c.Set(bg, k0, []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get(bg, k0, ReadOptions{}); err != nil {
		t.Fatal(err)
	}
	if size := c.CacheSize(); size != 1 {
		t.Fatalf("cache size = %d, want 1 before the epoch change", size)
	}

	nt, err := topo.RemoveShard(1)
	if err != nil {
		t.Fatal(err)
	}
	c.InstallTopology(nt)
	if size := c.CacheSize(); size != 0 {
		t.Fatalf("cache size = %d after epoch change, want 0 (purged)", size)
	}
	if v, found, err := c.Get(bg, k0, ReadOptions{}); err != nil || !found || string(v) != "v" {
		t.Fatalf("read across epoch change = %q found=%v err=%v", v, found, err)
	}
}

// Regression for the partial-result fill path: a multiget that returns
// early on a deadline must fill the cache only with keys that actually
// arrived — the stalled shard's keys must not be parked (empty or
// otherwise) where a later hit could serve them.
func TestClusterCachePartialDeadlineFillsOnlyArrivedKeys(t *testing.T) {
	inj := NewFaultInjector()
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, _ := startShardedCluster(t, m, func(shard, _ int) ServerOptions {
		if shard == 1 {
			return ServerOptions{Workers: 1, Fault: inj}
		}
		return ServerOptions{Workers: 1}
	})
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
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
	for _, kv := range []struct{ k, v string }{{k0, "live"}, {k1, "stalled"}} {
		if err := c.Set(bg, kv.k, []byte(kv.v), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	inj.StallNext(1)
	done := make(chan error, 1)
	var res *TaskResult
	go func() {
		var merr error
		res, merr = c.Multiget(bg, []string{k0, k1}, ReadOptions{Timeout: 150 * time.Millisecond})
		done <- merr
	}()
	waitFor(t, 5*time.Second, "stalled shard's batch parked in service", func() bool {
		return inj.StalledCount() == 1
	})
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("partial multiget err = %v, want context.DeadlineExceeded", err)
	}
	if !res.Found[0] || string(res.Values[0]) != "live" {
		t.Fatalf("live shard's key lost from partial result: found=%v val=%q", res.Found[0], res.Values[0])
	}
	if fills := c.Stats().CacheFills; fills != 1 {
		t.Fatalf("cache fills after partial multiget = %d, want 1 (only the arrived key)", fills)
	}
	// The arrived key is a hit; the stalled key must go back to the
	// wire (a fill for it never happened).
	inj.Release()
	misses := c.Stats().CacheMisses
	if v, found, err := c.Get(bg, k0, ReadOptions{}); err != nil || !found || string(v) != "live" {
		t.Fatalf("Get %s = %q found=%v err=%v", k0, v, found, err)
	}
	if c.Stats().CacheMisses != misses {
		t.Fatalf("arrived key missed the cache")
	}
	if v, found, err := c.Get(bg, k1, ReadOptions{}); err != nil || !found || string(v) != "stalled" {
		t.Fatalf("Get %s = %q found=%v err=%v", k1, v, found, err)
	}
	if c.Stats().CacheMisses != misses+1 {
		t.Fatalf("stalled key served without a wire fetch (fills leaked into the cache)")
	}
}

// The -race coherence hammer (CI runs this package under -race): one
// writer mutates a hot key while readers hammer it through the cache;
// no read may ever observe a value older than the write most recently
// acknowledged BEFORE that read began. Values encode the write sequence
// number, so staleness is directly checkable. Not-found is always
// legal: a delete may be in flight at any moment.
func TestClusterCacheCoherenceUnderRace(t *testing.T) {
	c, _ := cacheCluster(t, 16)
	const (
		key     = "hot"
		writes  = 151 // not a multiple of 5: the final op is a Set
		readers = 3
	)
	var acked atomic.Int64 // highest write index whose ack has returned

	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	writerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(writerDone)
		for n := int64(1); n <= writes; n++ {
			var err error
			if n%5 == 0 {
				err = c.Delete(bg, key, WriteOptions{})
			} else {
				err = c.Set(bg, key, []byte(strconv.FormatInt(n, 10)), WriteOptions{})
			}
			if err != nil {
				errCh <- fmt.Errorf("write %d: %w", n, err)
				return
			}
			acked.Store(n)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-writerDone:
					return
				default:
				}
				// Cache hits never block, so on a small GOMAXPROCS a
				// tight reader loop would starve the writer's network
				// goroutines for whole preemption slices; yield instead.
				runtime.Gosched()
				n0 := acked.Load() // snapshot BEFORE the read begins
				v, found, err := c.Get(bg, key, ReadOptions{})
				if err != nil {
					errCh <- fmt.Errorf("read: %w", err)
					return
				}
				if !found {
					continue
				}
				seq, err := strconv.ParseInt(string(v), 10, 64)
				if err != nil {
					errCh <- fmt.Errorf("unparseable value %q", v)
					return
				}
				if seq < n0 {
					errCh <- fmt.Errorf("stale read: value from write %d served after write %d was acknowledged", seq, n0)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: the final write (a Set) must be what reads observe,
	// cached or not.
	want := strconv.Itoa(writes)
	for i := 0; i < 2; i++ {
		v, found, err := c.Get(bg, key, ReadOptions{})
		if err != nil || !found || string(v) != want {
			t.Fatalf("post-quiesce Get #%d = %q found=%v err=%v, want %q", i, v, found, err, want)
		}
	}
}
