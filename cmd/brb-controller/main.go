// Command brb-controller administers a running cluster's topology. Each
// mode is one-shot: bootstrap a fresh cluster's epoch-1 topology, or
// rebalance it live. -cluster names the running servers in dense
// shard·R+replica order; the current topology is fetched from them (or
// bootstrapped from -shards/-replicas when they hold none, which
// -push-topology does explicitly):
//
//	brb-controller -push-topology -shards 3 -replicas 2 -cluster :7071,...,:7076
//	brb-controller -add-shard -cluster :7071,...,:7076 -new-addrs :7077,:7078
//	brb-controller -remove-shard 2 -cluster :7071,...,:7076
//
// With no mode flag it prints one usage line and exits 2.
//
// AddShard expects the new shard's servers to already be running (and
// empty) on -new-addrs with `-shard <NextShardID>`; migration streams
// the moving ranges off the donors, flips the epoch, and catches up —
// no stop-the-world, clients follow via NotOwner-triggered refreshes.
// Every exchange with a server gives up after netstore's fixed 5 s
// bound; there is no timeout flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/netstore"
)

func main() {
	shards := flag.Int("shards", 0, "shard groups (bootstrap with -push-topology, or when the cluster holds no topology)")
	replicas := flag.Int("replicas", 3, "replicas per shard (with -shards)")
	clusterAddrs := flag.String("cluster", "", "running cluster's server addresses, dense shard·R+replica order")
	pushTopo := flag.Bool("push-topology", false, "bootstrap: build the epoch-1 topology from -shards/-replicas over -cluster and push it to every server")
	addShard := flag.Bool("add-shard", false, "rebalance: grow the cluster by one shard on -new-addrs")
	newAddrs := flag.String("new-addrs", "", "the new shard's replica addresses (with -add-shard)")
	removeShard := flag.Int("remove-shard", -1, "rebalance: drain this shard ID onto the survivors")
	flag.Parse()

	if !*pushTopo && !*addShard && *removeShard < 0 {
		fmt.Fprintln(os.Stderr, "usage: brb-controller -push-topology|-add-shard|-remove-shard N -cluster ADDRS (see -h)")
		os.Exit(2)
	}
	runTopologyAdmin(*clusterAddrs, *pushTopo, *addShard, *newAddrs, *removeShard, *shards, *replicas)
}

// runTopologyAdmin executes the one-shot topology modes: bootstrap
// push, live AddShard, live RemoveShard.
func runTopologyAdmin(clusterAddrs string, push, add bool, newAddrs string, remove, shards, replicas int) {
	if clusterAddrs == "" {
		fmt.Fprintln(os.Stderr, "brb-controller: topology admin needs -cluster")
		os.Exit(2)
	}
	addrs := strings.Split(clusterAddrs, ",")
	ropts := netstore.RebalanceOptions{Logf: log.Printf}
	// One-shot admin modes run under the process's lifetime; every
	// exchange with a server (a dial, a scan page, a window of migration
	// writes) is bounded inside the rebalance machinery.
	ctx := context.Background()

	// Current topology: fetched from the cluster, or bootstrapped from
	// the flags when the servers hold none yet.
	cur, err := netstore.FetchTopology(ctx, addrs[0])
	if err != nil {
		log.Fatalf("brb-controller: fetch topology from %s: %v", addrs[0], err)
	}
	if cur == nil {
		if shards <= 0 {
			log.Fatalf("brb-controller: cluster holds no topology; pass -shards/-replicas to bootstrap")
		}
		base, err := cluster.NewShardTopology(cluster.ShardConfig{Shards: shards, Replicas: replicas})
		if err != nil {
			log.Fatalf("brb-controller: %v", err)
		}
		if cur, err = base.WithAddrs(addrs); err != nil {
			log.Fatalf("brb-controller: %v", err)
		}
		if err := netstore.PushTopology(ctx, cur); err != nil {
			log.Fatalf("brb-controller: bootstrap push: %v", err)
		}
		log.Printf("brb-controller: bootstrapped epoch-1 topology (%d shards × %d replicas) onto %d servers",
			cur.Shards(), cur.Replicas(), cur.NumServers())
	}

	switch {
	case add:
		na := strings.Split(newAddrs, ",")
		if newAddrs == "" || len(na) != cur.Replicas() {
			log.Fatalf("brb-controller: -add-shard needs -new-addrs with exactly %d addresses", cur.Replicas())
		}
		next, err := netstore.AddShard(ctx, cur, na, ropts)
		if err != nil {
			log.Fatalf("brb-controller: %v", err)
		}
		log.Printf("brb-controller: shard %d live at epoch %d (%d shards, %d servers)",
			cur.NextShardID(), next.Epoch(), next.Shards(), next.NumServers())
	case remove >= 0:
		next, err := netstore.RemoveShard(ctx, cur, remove, ropts)
		if err != nil {
			log.Fatalf("brb-controller: %v", err)
		}
		log.Printf("brb-controller: shard %d drained at epoch %d (%d shards remain); its servers can be decommissioned",
			remove, next.Epoch(), next.Shards())
	case push:
		// Bootstrap (or re-push) already handled above; make sure an
		// existing topology is also (re)delivered everywhere.
		if err := netstore.PushTopology(ctx, cur); err != nil {
			log.Fatalf("brb-controller: push: %v", err)
		}
		log.Printf("brb-controller: topology epoch %d pushed to %d servers", cur.Epoch(), cur.NumServers())
	}
}
