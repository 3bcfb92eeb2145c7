package netstore

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
)

// benchStore starts one server on loopback with nKeys preloaded and
// returns a client connected to it as a 1 shard × 1 replica cluster. The
// caller must Close both.
func benchStore(b testing.TB, nKeys int) (*Server, *Cluster) {
	b.Helper()
	store := kv.New(0)
	for i := 0; i < nKeys; i++ {
		store.Set(fmt.Sprintf("key:%d", i), make([]byte, 128))
	}
	srv := NewServer(store, ServerOptions{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{Topology: testTopo(1)})
	if err != nil {
		b.Fatal(err)
	}
	return srv, c
}

// pipelineKeys is the 8-key batch BenchmarkServerPipeline and
// TestServerPipelineAllocs round-trip.
func pipelineKeys() []string {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%d", i)
	}
	return keys
}

// BenchmarkServerPipeline measures the full batched-read round trip —
// client encode, server decode/schedule/serve, response encode, client
// decode — for an 8-key batch. allocs/op covers both endpoints; this is
// the hot path whose per-frame allocation cost the pooled codec and
// ConnWriter's retained encode buffer are meant to eliminate. TestServerPipelineAllocs
// guards the allocation count.
func BenchmarkServerPipeline(b *testing.B) {
	srv, c := benchStore(b, 64)
	defer srv.Close()
	defer c.Close()

	keys := pipelineKeys()
	// Warm size cache and connections.
	if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Multiget(bg, keys, ReadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Values) != len(keys) {
			b.Fatalf("got %d values", len(res.Values))
		}
	}
}

// TestServerPipelineAllocs is the regression guard on the round trip
// BenchmarkServerPipeline times: allocations across both endpoints must
// stay ≤ 13. The round trip allocates only what the caller keeps — the
// TaskResult with its Values and Found slices, and the one slab its
// values live in — plus the request's key copy on the server and the
// five of context.WithTimeout (the deadline every call carries); the
// working sets of both ends come from pools. That measures 10, and the
// bound adds the 3-allocation margin this test has always carried. Under
// -race, sync.Pool drops a quarter of all Puts at random, and each
// dropped working set costs its allocations again: 16–18 measured, so
// the bound there is 21. Do not port the flat client's pooled context:
// hedge waiters outlive the call, so its recycling contract cannot hold.
// If a change lifts the count past the bound, find the new allocations
// with -memprofilerate=1 and remove them — don't bump this number.
func TestServerPipelineAllocs(t *testing.T) {
	srv, c := benchStore(t, 64)
	defer srv.Close()
	defer c.Close()
	keys := pipelineKeys()
	// AllocsPerRun's own warm-up call fills the size cache and pools.
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	bound := 13.0
	if raceBuild {
		bound = 21
	}
	if allocs > bound {
		t.Fatalf("8-key round trip: %.0f allocs, must stay ≤ %.0f", allocs, bound)
	}
}

// TestTwoShardMultigetAllocs pins the allocations of a multiget whose
// keys span two shards, both endpoints counted: two pieces, each a
// message to its own server. The call sends both from the caller's
// goroutine, then waits for the second on a goroutine of its own, whose
// closure is the one allocation a piece adds beyond its servers' round
// trip: 13 measured, against 10 for the one-shard round trip of
// TestServerPipelineAllocs. Handing the piece to its goroutine as a go
// statement's argument cost one more (14), which the bound of 13 fails.
// Under -race, where sync.Pool drops Puts at random, 28 measured, and
// the bound is 32.
func TestTwoShardMultigetAllocs(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 2, Replicas: 1})
	addrs, _ := startShardedCluster(t, m, nil)
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := pipelineKeys()
	shards := map[int]bool{}
	for _, k := range keys {
		shards[m.ShardOfKey(k)] = true
		if err := c.Set(bg, k, make([]byte, 128), WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if len(shards) != 2 {
		t.Fatalf("keys span %d shards, want 2", len(shards))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Multiget(bg, keys, ReadOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	bound := 13.0
	if raceBuild {
		bound = 32
	}
	if allocs > bound {
		t.Fatalf("two-shard 8-key multiget: %.0f allocs, must stay ≤ %.0f", allocs, bound)
	}
}

// BenchmarkServerSaturation drives one server to saturation from many
// client goroutines over loopback and reports aggregate read throughput
// (keys/s). The values are 4 KiB, so each 8-key response encodes 32 KiB
// into its connection's writer. Run with -cpu 1,2,4 to see the scaling.
func BenchmarkServerSaturation(b *testing.B) {
	const (
		nKeys     = 512
		valSize   = 4096
		batchKeys = 8
		nClients  = 4
	)
	store := kv.New(0)
	for i := 0; i < nKeys; i++ {
		store.Set(fmt.Sprintf("key:%d", i), make([]byte, valSize))
	}
	srv := NewServer(store, ServerOptions{Workers: max(4, runtime.GOMAXPROCS(0))})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	clients := make([]*Cluster, nClients)
	for i := range clients {
		c, err := DialCluster([]string{ln.Addr().String()}, ClusterOptions{Topology: testTopo(1)})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	// Warm connections and size caches.
	warm := []string{"key:0"}
	for _, c := range clients {
		if _, err := c.Multiget(bg, warm, ReadOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := clients[int(next.Add(1))%nClients]
		keys := make([]string, batchKeys)
		off := int(next.Add(1)) * 31
		for pb.Next() {
			for i := range keys {
				keys[i] = fmt.Sprintf("key:%d", (off+i)%nKeys)
			}
			off += batchKeys
			res, err := c.Multiget(bg, keys, ReadOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Values) != batchKeys {
				b.Fatalf("got %d values", len(res.Values))
			}
		}
	})
	b.ReportMetric(float64(b.N*batchKeys)/b.Elapsed().Seconds(), "keys/s")
}

// BenchmarkSched isolates the run queue itself — no sockets, no codec —
// so the cost of its one lock is visible even on machines where the
// end-to-end saturation benchmark is bottlenecked elsewhere. Producers
// push 8-item batches and a worker pool pops them.
func BenchmarkSched(b *testing.B) {
	const batchItems = 8
	s := newScheduler(Priority)
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(2, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, _, ok := s.pop(); !ok {
					return
				}
				served.Add(1)
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			items := make([]workItem, batchItems)
			for i := range items {
				items[i].priority = int64(i)
			}
			s.pushAll(items)
		}
	})
	s.close()
	wg.Wait()
	b.StopTimer()
	if got := served.Load(); got != int64(b.N)*batchItems {
		b.Fatalf("served %d of %d items", got, int64(b.N)*batchItems)
	}
	b.ReportMetric(float64(b.N*batchItems)/b.Elapsed().Seconds(), "items/s")
}
