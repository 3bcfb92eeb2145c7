// Command brb-server runs networked BRB storage servers: key-value
// stores whose request schedulers drain task-aware priority queues with
// bounded worker pools.
//
// Single server:
//
//	brb-server -listen :7070 -workers 4 -discipline priority
//
// One replica of a sharded cluster (rejects batches routed to other
// shards with a misrouted error instead of silently missing keys):
//
//	brb-server -listen :7071 -shard 0 -workers 4
//
// A whole shard group in one process (one server and one store per
// address, all replicas of the same shard — the local-deployment unit
// netstore.DialCluster addresses as s·R+r):
//
//	brb-server -shard 1 -group-listen :7073,:7074
//
// Durable replicas keep their data across restarts: -data-dir points at
// a directory that gets a segmented write-ahead log plus periodic
// snapshots (one subdirectory per replica in group mode), and the store
// is recovered from it before the listener opens. -fsync picks the
// durability/latency trade (always | interval | never):
//
//	brb-server -listen :7070 -shard 0 -data-dir /var/lib/brb -fsync always
//
// On SIGINT/SIGTERM the process shuts down gracefully: listeners close,
// in-flight requests drain, and durable stores flush their WAL and
// write a final snapshot so the next boot replays O(snapshot) instead
// of O(log).
//
// The -service-base/-service-perbyte flags inject artificial
// size-dependent service time, recreating the simulator's cost model for
// laptop-scale validation runs against brb-load.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/netstore"
)

func main() {
	listen := flag.String("listen", ":7070", "listen address (single-server mode)")
	groupListen := flag.String("group-listen", "", "comma-separated addresses: launch one replica server per address, all in -shard (shard-group mode)")
	shard := flag.Int("shard", -1, "shard group this server belongs to (-1 = unsharded, accept all batches)")
	workers := flag.Int("workers", 4, "service workers (cores) per server")
	discipline := flag.String("discipline", "priority", "scheduling discipline: priority | fifo")
	base := flag.Duration("service-base", 0, "injected size-independent service time (0 = none)")
	perByte := flag.Duration("service-perbyte", 0, "injected per-byte service time")
	tombHorizon := flag.Duration("tombstone-horizon", 0, "drop delete tombstones older than this, sweeping every horizon/10 (floor 1s) (0 = keep forever; must exceed the longest replay window)")
	dataDir := flag.String("data-dir", "", "durable mode: WAL + snapshot directory (empty = memory-only; group mode appends replica-N per address)")
	fsync := flag.String("fsync", "always", "WAL fsync policy with -data-dir: always | interval | never")
	snapInterval := flag.Duration("snapshot-interval", time.Minute, "periodic snapshot (and WAL truncation) period with -data-dir")
	flag.Parse()

	var disc netstore.Discipline
	switch *discipline {
	case "priority":
		disc = netstore.Priority
	case "fifo":
		disc = netstore.FIFO
	default:
		fmt.Fprintf(os.Stderr, "brb-server: unknown discipline %q\n", *discipline)
		os.Exit(2)
	}
	fsyncPolicy, err := kv.ParseFsyncPolicy(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "brb-server: %v\n", err)
		os.Exit(2)
	}
	opts := netstore.ServerOptions{
		Workers: *workers, Discipline: disc, TombstoneGCHorizon: *tombHorizon,
		Fsync: fsyncPolicy, SnapshotInterval: *snapInterval,
	}
	if *shard >= 0 {
		opts.Shard = *shard
		opts.CheckShard = true
	}
	if *base > 0 || *perByte > 0 {
		b, pb := *base, *perByte
		opts.ServiceDelay = func(size int64) time.Duration {
			return b + time.Duration(size)*pb
		}
	}

	addrs := []string{*listen}
	if *groupListen != "" {
		if *shard < 0 {
			fmt.Fprintln(os.Stderr, "brb-server: -group-listen requires -shard")
			os.Exit(2)
		}
		addrs = strings.Split(*groupListen, ",")
	}

	servers := make([]*netstore.Server, len(addrs))
	errCh := make(chan error, len(addrs))
	for i, addr := range addrs {
		srv, err := buildServer(i, len(addrs), *dataDir, opts)
		if err != nil {
			log.Fatalf("brb-server: %v", err)
		}
		servers[i] = srv
		if *shard >= 0 {
			log.Printf("brb-server: shard %d replica %d listening on %s (%d workers, %s scheduling)",
				*shard, i, addr, *workers, disc)
		} else {
			log.Printf("brb-server: listening on %s (%d workers, %s scheduling)", addr, *workers, disc)
		}
		go func(srv *netstore.Server, addr string) { errCh <- srv.ListenAndServe(addr) }(srv, addr)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Printf("brb-server: %v — shutting down (flushing WAL, final snapshot)", sig)
		for _, srv := range servers {
			srv.Close()
		}
		log.Printf("brb-server: shutdown complete")
	case err := <-errCh:
		if err != nil {
			log.Fatalf("brb-server: %v", err)
		}
	}
}

// buildServer creates one replica server: durable when dataDir is set
// (recovering its store before the caller opens the listener), memory-
// only otherwise. With several replicas in one process, each gets its
// own subdirectory — two WALs must never share a directory.
func buildServer(replica, total int, dataDir string, opts netstore.ServerOptions) (*netstore.Server, error) {
	if dataDir == "" {
		return netstore.NewServer(kv.New(0), opts), nil
	}
	opts.DataDir = dataDir
	if total > 1 {
		opts.DataDir = filepath.Join(dataDir, fmt.Sprintf("replica-%d", replica))
	}
	srv, stats, err := netstore.NewDurableServer(kv.New(0), opts)
	if err != nil {
		return nil, err
	}
	log.Printf("brb-server: replica %d recovered from %s (snapshot %d: %d entries, %d WAL records, %d corrupt)",
		replica, opts.DataDir, stats.SnapshotIndex, stats.SnapshotEntries, stats.WALRecords, stats.CorruptRecords)
	return srv, nil
}
