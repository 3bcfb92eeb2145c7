package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

// testCluster is one workload's in-process deployment: shards×replicas
// servers on loopback listeners (dense shard·R+replica order, as
// brb-load -spawn lays them out) and the H shared client handles every
// op is multiplexed onto.
type testCluster struct {
	w         *workload
	topo      *cluster.ShardTopology
	servers   []*netstore.Server
	injectors []*netstore.FaultInjector
	addrs     []string
	dataRoot  string // durable workloads: parent of the per-server WAL dirs
	handles   []*netstore.Cluster
	serveWG   sync.WaitGroup
	// sizes[id] is the length of the value loaded under key id.
	sizes []int
}

func (tc *testCluster) serverOptions(i int) netstore.ServerOptions {
	opts := netstore.ServerOptions{
		Workers: tc.w.workers, Discipline: tc.w.discipline, ServiceDelay: tc.w.serviceDelay,
		Shard: i / tc.w.replicas, CheckShard: true, Fault: tc.injectors[i],
	}
	if tc.w.durable {
		opts.DataDir = filepath.Join(tc.dataRoot, fmt.Sprintf("server-%d", i))
		opts.Fsync = kv.FsyncAlways
	}
	return opts
}

// startServer builds server i (recovering its data dir when durable)
// and serves it on a fresh loopback port.
func (tc *testCluster) startServer(i int) (kv.ReplayStats, error) {
	var srv *netstore.Server
	var stats kv.ReplayStats
	if tc.w.durable {
		var err error
		srv, stats, err = netstore.NewDurableServer(kv.New(0), tc.serverOptions(i))
		if err != nil {
			return stats, fmt.Errorf("durable server %d: %w", i, err)
		}
	} else {
		srv = netstore.NewServer(kv.New(0), tc.serverOptions(i))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return stats, err
	}
	tc.servers[i], tc.addrs[i] = srv, ln.Addr().String()
	tc.serveWG.Add(1)
	go func() {
		defer tc.serveWG.Done()
		_ = srv.Serve(ln) // returns nil after Close/Kill; a listener error ends the run through failed ops
	}()
	return stats, nil
}

// spawn starts the workload's servers and dials its H handles. tmpRoot
// is where a durable workload's data directory is created.
func spawn(w *workload, handles int, tmpRoot string) (*testCluster, error) {
	n := w.shards * w.replicas
	tc := &testCluster{
		w:         w,
		servers:   make([]*netstore.Server, n),
		injectors: make([]*netstore.FaultInjector, n),
		addrs:     make([]string, n),
	}
	if w.durable {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "wal-")
		if err != nil {
			return nil, err
		}
		tc.dataRoot = dir
	}
	for i := range tc.servers {
		tc.injectors[i] = netstore.NewFaultInjector()
		if _, err := tc.startServer(i); err != nil {
			tc.close()
			return nil, err
		}
	}
	topo, err := cluster.NewShardTopology(cluster.ShardConfig{Shards: w.shards, Replicas: w.replicas})
	if err == nil {
		topo, err = topo.WithAddrs(tc.addrs)
	}
	if err != nil {
		tc.close()
		return nil, err
	}
	tc.topo = topo
	for i := 0; i < handles; i++ {
		h, err := netstore.DialCluster(nil, netstore.ClusterOptions{
			Topology: topo, Client: i, Clients: handles,
			Assigner: w.assigner, CostModel: w.costModel,
			ServerWorkers: w.workers, CacheSize: w.cacheSize,
		})
		if err != nil {
			tc.close()
			return nil, err
		}
		tc.handles = append(tc.handles, h)
	}
	return tc, nil
}

// datasetSeed fixes the value sizes every run loads. The dataset is
// part of a workload's definition, like its rates: the heavy-tailed
// size draw decides how many 16 ms-to-serve values the keyspace holds,
// so redrawing it per seed would compare different stores. The run's
// -seed varies the traffic against it.
const datasetSeed = 1

// load writes every key once with a self-validating value whose size
// is drawn from the workload's load distribution, spreading
// the writes over all handles, then reads the whole keyspace through
// each handle so every handle has learned every value size its cost
// forecasts use.
func (tc *testCluster) load(ctx context.Context, keys []string) error {
	r := randx.New(datasetSeed)
	tc.sizes = make([]int, len(keys))
	for i := range tc.sizes {
		tc.sizes[i] = int(tc.w.loadSizes.Sample(r))
	}
	errs := make(chan error, 3*len(tc.handles)) // one send per loader and per warmer at most
	var wg sync.WaitGroup
	// Two loaders per handle overlap the replica round trips (and, on
	// durable servers, share group commits).
	loaders := 2 * len(tc.handles)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tc.handles[l%len(tc.handles)]
			for id := l; id < len(keys); id += loaders {
				if err := h.Set(ctx, keys[id], makeValue(id, tc.sizes[id]), netstore.WriteOptions{}); err != nil {
					errs <- fmt.Errorf("load %s: %w", keys[id], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, h := range tc.handles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const chunk = 64
			for lo := 0; lo < len(keys); lo += chunk {
				hi := min(lo+chunk, len(keys))
				res, err := h.Multiget(ctx, keys[lo:hi], netstore.ReadOptions{})
				if err != nil {
					errs <- fmt.Errorf("warm: %w", err)
					return
				}
				for i := range res.Values {
					if !res.Found[i] || !checkValue(lo+i, res.Values[i]) {
						errs <- fmt.Errorf("warm: %s read back wrong", keys[lo+i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// closeHandles closes every client handle (idempotent).
func (tc *testCluster) closeHandles() {
	for _, h := range tc.handles {
		h.Close()
	}
	tc.handles = nil
}

// close tears the deployment down and removes its data directory.
func (tc *testCluster) close() {
	tc.closeHandles()
	for _, s := range tc.servers {
		if s != nil {
			s.Close()
		}
	}
	tc.serveWG.Wait()
	if tc.dataRoot != "" {
		_ = os.RemoveAll(tc.dataRoot) // scratch data; a leftover dir is harmless and ignored by git
	}
}
