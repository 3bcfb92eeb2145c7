// Netdemo: the real networked store end to end, in one process — three
// brb-server instances with injected size-dependent service times, a
// credits controller, and a task-aware client issuing batched playlist
// reads with EqualMax priorities.
//
//	go run ./examples/netdemo
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

func main() {
	// Every store call is context-first; the demo is happy with the
	// client's default request timeout on top of this background ctx.
	ctx := context.Background()
	const servers = 3
	// Size-dependent service time, as in the simulator's cost model.
	delay := func(size int64) time.Duration {
		return 30*time.Microsecond + time.Duration(size)*20*time.Nanosecond
	}

	// Start three storage servers on loopback.
	addrs := make([]string, servers)
	for i := 0; i < servers; i++ {
		srv := netstore.NewServer(kv.New(0), netstore.ServerOptions{
			Workers:      2,
			Discipline:   netstore.Priority,
			ServiceDelay: delay,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		addrs[i] = ln.Addr().String()
	}
	fmt.Println("started 3 storage servers:", addrs)

	// Start the credits controller.
	ctrl := netstore.NewControllerServer(netstore.ControllerOptions{
		Clients: 1, Servers: servers, CapacityPerNano: 2, Interval: 50 * time.Millisecond,
	})
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = ctrl.Serve(cln) }()
	defer ctrl.Close()
	fmt.Println("started credits controller:", cln.Addr())

	// Task-aware client: the three servers are one shard's replica set.
	topo := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: servers})
	client, err := netstore.DialCluster(addrs, netstore.ClusterOptions{
		Topology:      topo,
		Assigner:      core.EqualMax{},
		ServerWorkers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.AttachController(cln.Addr().String(), 50*time.Millisecond); err != nil {
		log.Fatal(err)
	}

	// Load 200 tracks with heavy-tailed sizes.
	sizes := randx.BoundedPareto{Alpha: 1.0, L: 256, H: 32 << 10}
	r := randx.New(7)
	for i := 0; i < 200; i++ {
		if err := client.Set(ctx, fmt.Sprintf("track:%d", i), make([]byte, int(sizes.Sample(r))), netstore.WriteOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("loaded 200 tracks")

	// Issue 300 playlist reads and report latency percentiles.
	hist := metrics.NewLatencyHistogram()
	for i := 0; i < 300; i++ {
		fan := r.Geometric(1.0 / 8.6)
		keys := make([]string, fan)
		for j := range keys {
			keys[j] = fmt.Sprintf("track:%d", r.Intn(200))
		}
		res, err := client.Multiget(ctx, keys, netstore.ReadOptions{})
		if err != nil {
			log.Fatal(err)
		}
		hist.Record(res.Latency.Nanoseconds())
		if i == 0 {
			fmt.Printf("first playlist (%d tracks): %v, bottleneck forecast %v\n",
				fan, res.Latency.Round(time.Microsecond), time.Duration(res.Bottleneck))
		}
	}
	s := hist.Summarize()
	fmt.Printf("300 playlist reads: p50=%v p95=%v p99=%v\n",
		time.Duration(s.Median).Round(time.Microsecond),
		time.Duration(s.P95).Round(time.Microsecond),
		time.Duration(s.P99).Round(time.Microsecond))
}
