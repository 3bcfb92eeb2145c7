package netstore

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
)

// Two 1×1 clusters in one process: reads, a write, a deadline-shed batch
// and a cache hit go through client A only. Every count lands on A and
// A's server, exactly; B and B's server count nothing.
func TestStatsAttributedPerInstance(t *testing.T) {
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 1})
	inj := NewFaultInjector()
	addrsA, serversA := startShardedCluster(t, m, func(_, _ int) ServerOptions {
		return ServerOptions{Workers: 1, Fault: inj}
	})
	addrsB, serversB := startShardedCluster(t, m, func(_, _ int) ServerOptions {
		return ServerOptions{Workers: 1}
	})
	dial := func(addrs []string) *Cluster {
		c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1, CacheSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}
	a, b := dial(addrsA), dial(addrsB)

	if err := a.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // a miss that fills the cache, then a hit
		if v, found, err := a.Get(bg, "k", ReadOptions{}); err != nil || !found || string(v) != "v" {
			t.Fatalf("Get #%d = %q found=%v err=%v", i, v, found, err)
		}
	}
	// The one worker stalls on "busy"; "late" queues behind it past its
	// deadline and is shed when the worker pops it.
	inj.StallNext(1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := a.Get(bg, "busy", ReadOptions{}); err != nil {
			t.Errorf("occupying Get: %v", err)
		}
	}()
	waitFor(t, 5*time.Second, "occupying read stalled in service", func() bool {
		return inj.StalledCount() == 1
	})
	if _, _, err := a.Get(bg, "late", ReadOptions{Timeout: 50 * time.Millisecond}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get behind the stalled worker: err = %v, want context.DeadlineExceeded", err)
	}
	inj.Release()
	wg.Wait()
	srvA := serversA[0]
	waitFor(t, 5*time.Second, "the late read shed", func() bool { return srvA.Stats().ExpiredDrops == 1 })

	if got := b.Stats(); got != (ClusterStats{}) {
		t.Fatalf("idle client B counted %+v", got)
	}
	if got := serversB[0].Stats(); got != (ServerStats{}) {
		t.Fatalf("idle server B counted %+v", got)
	}
	// Three reads reached the server (the hit did not); "busy" and
	// "late" are absent, so only "k" filled the cache.
	wantA := ClusterStats{
		Expired:          1,
		MultigetSubtasks: 3,
		MultigetBatches:  3,
		CacheHits:        1,
		CacheMisses:      3,
		CacheFills:       1,
	}
	if got := a.Stats(); got != wantA {
		t.Fatalf("client A counted %+v, want %+v", got, wantA)
	}
	if got, want := srvA.Stats(), (ServerStats{Served: 2, ExpiredDrops: 1}); got != want {
		t.Fatalf("server A counted %+v, want %+v", got, want)
	}
}
