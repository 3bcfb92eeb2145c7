// Command brb-load drives a cluster of brb-server processes with a
// SoundCloud-like batched-read workload and reports task latency
// percentiles — the networked counterpart of brb-sim's Figure 2 runs.
//
// Usage (3 servers already running on :7071..:7073, one replica set):
//
//	brb-load -servers 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	         -replication 3 -keys 1000 -tasks 5000 -fanout 8.6 \
//	         -assigner EqualMax [-controller 127.0.0.1:7080]
//
// The deployment is -shards × -replication servers (default 1 × 3):
// addresses are dense shard·R+replica order — replicas of shard 0 first,
// then shard 1, as launched by `brb-server -shard s -group-listen ...` —
// keys consistent-hash across shards, and each task scatter-gathers with
// C3 replica selection:
//
//	brb-load -shards 3 -replication 2 \
//	         -servers :7071,:7072,:7073,:7074,:7075,:7076
//
// Fault injection: -kill-replica severs one
// replica's connectivity mid-run through an in-process TCP proxy and
// restores it later, exercising the client's down-marking, hinted
// handoff, revival probing, and read-repair; -write-frac mixes writes
// into the measurement phase so the outage creates real divergence. A
// post-run scan reports whether the shard's replicas version-converged:
//
//	brb-load -shards 3 -replication 2 -servers ... \
//	         -write-frac 0.1 -kill-replica 4 -kill-after 2s -restart-after 3s
//
// Tail-cutting: -spawn runs the cluster's servers
// in-process with fault injectors attached, -slow-replica slows one of
// them by -slow-latency per request after the load phase, and -hedge
// re-issues straggling batches to the next-ranked replica (fixed delay
// or adaptive C3 quantile trigger). -cache adds a versioned hot-key
// client cache (an admission-filtered LRU: sweeps of once-read keys are
// refused, not cached), which -zipf makes visible by concentrating reads:
//
//	brb-load -shards 2 -replication 2 -spawn \
//	         -hedge adaptive -cache 256 -zipf 1.1 \
//	         -slow-replica 0 -slow-latency 5ms
//
// Crash recovery (requires -spawn): -crash-replica hard-kills one
// in-process server mid-run — no flush, no final snapshot, the process
// equivalent of SIGKILL — and -recover-after later restarts it from its
// WAL + snapshot directory (-data-dir, a temp dir by default; -fsync
// picks the WAL sync policy). The run then waits for revival and hinted
// handoff, sweeps the keyspace, and asserts that the restarted replica
// serves every acknowledged write at at least its acked version:
//
//	brb-load -shards 2 -replication 2 -spawn -write-frac 0.2 \
//	         -crash-replica 1 -crash-after 2s -recover-after 1s
//
// Live rebalancing: -add-shard-after grows the
// cluster by one shard mid-run (spawning the new shard's replicas
// in-process), -remove-shard-after drains the highest shard onto the
// survivors. Both push the epoch-versioned topology to every server at
// startup, run the migration under the measurement load, and finish
// with a convergence scan proving every key lives on exactly its new
// owner with all replicas agreeing:
//
//	brb-load -shards 3 -replication 2 -servers ... \
//	         -write-frac 0.1 -add-shard-after 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/randx"
)

func main() {
	serversFlag := flag.String("servers", "127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073", "comma-separated server addresses")
	controller := flag.String("controller", "", "credits controller address (optional)")
	shards := flag.Int("shards", 1, "shard groups (addresses in dense shard·R+replica order)")
	replication := flag.Int("replication", 3, "replication factor (replicas per shard)")
	keys := flag.Int("keys", 1000, "key-space size to load")
	tasks := flag.Int("tasks", 5000, "tasks to issue")
	clients := flag.Int("clients", 4, "concurrent client connections")
	fanout := flag.Float64("fanout", 8.6, "mean task fan-out")
	burstProb := flag.Float64("burst-prob", 0.02, "playlist-burst probability")
	assignerName := flag.String("assigner", "EqualMax", "priority assigner: EqualMax|UnifIncr|UnifIncrSub|Oblivious|SJFReq")
	seed := flag.Uint64("seed", 1, "workload seed")
	skipLoad := flag.Bool("skip-load", false, "skip the initial data load")
	allocStats := flag.Bool("allocstats", false, "report client-process allocs/op and bytes/op over the measurement phase")
	writeFrac := flag.Float64("write-frac", 0, "fraction of tasks that are writes instead of multigets (fault runs need >0 to create divergence)")
	killReplica := flag.Int("kill-replica", -1, "dense server index to fault mid-run (-1 = no fault injection)")
	killAfter := flag.Duration("kill-after", 2*time.Second, "measurement time before the fault is injected")
	restartAfter := flag.Duration("restart-after", 3*time.Second, "outage duration before the replica is restored")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "cluster client's replica revival probe interval")
	addShardAfter := flag.Duration("add-shard-after", 0, "measurement time before a new shard is added live (0 = off)")
	removeShardAfter := flag.Duration("remove-shard-after", 0, "measurement time before the highest shard is drained live (0 = off)")
	deadline := flag.Duration("deadline", 0, "per-task deadline propagated to the servers (0 = the client's default request timeout); tasks that exceed it count as expired in the run output instead of aborting the client")
	hedgeMode := flag.String("hedge", "off", "hedged reads: off|fixed|adaptive")
	hedgeDelay := flag.Duration("hedge-delay", 0, "hedge trigger delay (fixed mode) and cold-start floor (adaptive); 0 = policy default")
	hedgeQuantile := flag.Float64("hedge-quantile", 0, "adaptive hedge trigger quantile in (0,1); 0 = policy default")
	cacheSize := flag.Int("cache", 0, "client hot-key cache entries per client: an admission-filtered LRU, a key not yet cached must be read more often than the entry it would evict (0 = off)")
	spawn := flag.Bool("spawn", false, "spawn the cluster's servers in-process instead of dialing -servers (self-contained smoke runs)")
	slowReplica := flag.Int("slow-replica", -1, "dense server index slowed by -slow-latency per request after the load phase (requires -spawn; -1 = none)")
	slowLatency := flag.Duration("slow-latency", 2*time.Millisecond, "added service latency for -slow-replica")
	zipfS := flag.Float64("zipf", 0, "Zipf exponent for key popularity (0 = uniform; >1 concentrates reads on hot keys)")
	crashReplica := flag.Int("crash-replica", -1, "dense server index to hard-kill mid-run, in-process SIGKILL equivalent (requires -spawn; -1 = off)")
	crashAfter := flag.Duration("crash-after", 2*time.Second, "measurement time before the crash")
	recoverAfter := flag.Duration("recover-after", 1*time.Second, "downtime before the crashed server restarts from its WAL + snapshot directory")
	dataDir := flag.String("data-dir", "", "durable spawn: WAL + snapshot root, one subdirectory per server (empty = a temp dir when -crash-replica is set)")
	fsyncFlag := flag.String("fsync", "always", "WAL fsync policy for durable spawned servers: always | interval | never")
	specPath := flag.String("spec", "", "declarative workload spec, YAML or JSON (see internal/loadgen); overrides the legacy workload flags -keys/-tasks/-clients/-fanout/-burst-prob/-write-frac/-zipf/-seed")
	printSpec := flag.Bool("print-spec", false, "print the effective workload spec as canonical YAML and exit (legacy flags compile to a spec too)")
	recordPath := flag.String("record", "", "record the run's op trace to this JSONL file before executing (a .gz suffix compresses)")
	replayPath := flag.String("replay", "", "replay a previously recorded op trace instead of generating a workload (mutually exclusive with -spec)")
	flag.Parse()

	bg := context.Background()

	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "brb-load: -shards must be at least 1 (a flat replicated tier is -shards 1)")
		os.Exit(2)
	}
	addrs := strings.Split(*serversFlag, ",")
	assigner, err := core.NewAssigner(*assignerName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}

	var hedgePol netstore.HedgePolicy
	switch *hedgeMode {
	case "off":
	case "fixed":
		hedgePol = netstore.HedgePolicy{Mode: netstore.HedgeFixed, Delay: *hedgeDelay}
	case "adaptive":
		hedgePol = netstore.HedgePolicy{Mode: netstore.HedgeAdaptive, Delay: *hedgeDelay, Quantile: *hedgeQuantile}
	default:
		fmt.Fprintf(os.Stderr, "brb-load: -hedge %q: want off, fixed, or adaptive\n", *hedgeMode)
		os.Exit(2)
	}
	if err := hedgePol.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}

	// Workload resolution: every run executes a loadgen op sequence —
	// replayed from a trace, generated from a spec file, or generated
	// from the legacy flags compiled down to an equivalent spec. The
	// spec's keyspace and seed override the flags so the load phase and
	// the post-run convergence scans address the same keys the ops do.
	var header loadgen.TraceHeader
	var wops []loadgen.Op
	if *replayPath != "" {
		if *specPath != "" || *printSpec {
			fmt.Fprintln(os.Stderr, "brb-load: -replay is mutually exclusive with -spec/-print-spec (the trace already fixes the workload)")
			os.Exit(2)
		}
		header, wops, err = loadgen.ReadTraceFile(*replayPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		*keys, *seed = header.Keys, header.Seed
		log.Printf("replaying %d ops from %s (workload %q, seed %d)", len(wops), *replayPath, header.Name, header.Seed)
	} else {
		wspec, err := loadWorkloadSpec(*specPath, legacyFlags{
			seed: *seed, keys: *keys, tasks: *tasks, clients: *clients,
			fanout: *fanout, burstProb: *burstProb, writeFrac: *writeFrac, zipfS: *zipfS,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		if *printSpec {
			fmt.Print(loadgen.EncodeYAML(wspec))
			return
		}
		*keys, *seed = wspec.Keys, wspec.Seed
		wops, err = loadgen.Generate(wspec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		header = loadgen.NewTraceHeader(wspec)
	}
	if *recordPath != "" {
		// Record before running: the trace is the op *schedule*, fully
		// determined pre-execution, so a recorded generated run and a
		// recorded replay of it are byte-identical.
		if err := loadgen.WriteTraceFile(*recordPath, header, wops); err != nil {
			log.Fatalf("brb-load: record: %v", err)
		}
		log.Printf("recorded %d ops to %s", len(wops), *recordPath)
	}
	totalConns := countStreams(wops)

	// Crash recovery needs -spawn (the run must own the *Server handle to
	// hard-kill it) and a surviving sibling so writes keep succeeding and
	// hinted handoff has a donor during the outage.
	if *crashReplica >= 0 {
		switch {
		case !*spawn:
			fmt.Fprintln(os.Stderr, "brb-load: -crash-replica needs -spawn (the crash kills an in-process server)")
			os.Exit(2)
		case *replication < 2:
			fmt.Fprintln(os.Stderr, "brb-load: -crash-replica needs -replication >= 2 (writes during the outage need a surviving replica)")
			os.Exit(2)
		case *killReplica >= 0:
			fmt.Fprintln(os.Stderr, "brb-load: -crash-replica and -kill-replica are mutually exclusive (process crash vs connectivity fault)")
			os.Exit(2)
		}
	}

	// -spawn runs the whole cluster in this process, each server with a
	// FaultInjector attached — the self-contained way to demonstrate
	// tail-cutting: slow one replica by a service-latency factor and
	// watch hedged reads hold p999 down. With -crash-replica or
	// -data-dir, every spawned server is durable: its store is backed by
	// a per-server WAL + snapshot directory it can be recovered from.
	var injectors []*netstore.FaultInjector
	var spawned []*netstore.Server
	var spawnDirs []string
	var fsyncPolicy kv.FsyncPolicy
	durableSpawn := *spawn && (*crashReplica >= 0 || *dataDir != "")
	if *spawn {
		n := *shards * *replication
		if *crashReplica >= n {
			fmt.Fprintf(os.Stderr, "brb-load: -crash-replica %d out of range (%d servers)\n", *crashReplica, n)
			os.Exit(2)
		}
		if durableSpawn {
			fsyncPolicy, err = kv.ParseFsyncPolicy(*fsyncFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "brb-load:", err)
				os.Exit(2)
			}
			root := *dataDir
			if root == "" {
				root, err = os.MkdirTemp("", "brb-load-wal-")
				if err != nil {
					log.Fatalf("brb-load: temp data dir: %v", err)
				}
				defer os.RemoveAll(root)
			}
			spawnDirs = make([]string, n)
			for i := range spawnDirs {
				spawnDirs[i] = filepath.Join(root, fmt.Sprintf("server-%d", i))
			}
			log.Printf("durable spawn: WAL + snapshots under %s (fsync=%s)", root, fsyncPolicy)
		}
		addrs = make([]string, n)
		injectors = make([]*netstore.FaultInjector, n)
		spawned = make([]*netstore.Server, n)
		for s := 0; s < *shards; s++ {
			for r := 0; r < *replication; r++ {
				i := s**replication + r
				injectors[i] = netstore.NewFaultInjector()
				opts := netstore.ServerOptions{
					Workers: 4, Shard: s, CheckShard: true, Fault: injectors[i],
				}
				var srv *netstore.Server
				if durableSpawn {
					opts.DataDir = spawnDirs[i]
					opts.Fsync = fsyncPolicy
					srv, _, err = netstore.NewDurableServer(kv.New(0), opts)
					if err != nil {
						log.Fatalf("brb-load: spawn durable server %d: %v", i, err)
					}
				} else {
					srv = netstore.NewServer(kv.New(0), opts)
				}
				spawned[i] = srv
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					log.Fatalf("brb-load: spawn listener: %v", err)
				}
				go func() { _ = srv.Serve(ln) }()
				addrs[i] = ln.Addr().String()
			}
		}
		log.Printf("spawned %d in-process servers (%d shards × %d replicas)", n, *shards, *replication)
	}
	if *slowReplica >= 0 {
		if !*spawn {
			fmt.Fprintln(os.Stderr, "brb-load: -slow-replica needs -spawn (the injector lives in the server process)")
			os.Exit(2)
		}
		if *slowReplica >= len(injectors) {
			fmt.Fprintf(os.Stderr, "brb-load: -slow-replica %d out of range (%d servers)\n", *slowReplica, len(injectors))
			os.Exit(2)
		}
	}

	// Fault injection fronts the victim with an in-process TCP proxy so
	// the run can sever and restore connectivity without owning the
	// server process. realAddrs keeps the direct addresses for the
	// post-run convergence scan.
	realAddrs := append([]string(nil), addrs...)
	var proxy *faultProxy
	if *killReplica >= 0 {
		if *killReplica >= len(addrs) {
			fmt.Fprintf(os.Stderr, "brb-load: -kill-replica %d out of range (%d servers)\n", *killReplica, len(addrs))
			os.Exit(2)
		}
		proxy, err = newFaultProxy(addrs[*killReplica])
		if err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
		addrs[*killReplica] = proxy.addr()
	}

	rebalancing := *addShardAfter > 0 || *removeShardAfter > 0
	if rebalancing && (*killReplica >= 0 || *crashReplica >= 0) {
		fmt.Fprintln(os.Stderr, "brb-load: -add-shard-after/-remove-shard-after need no -kill-replica/-crash-replica")
		os.Exit(2)
	}

	shardTopo, err := cluster.NewShardTopology(cluster.ShardConfig{Shards: *shards, Replicas: *replication})
	if err == nil && shardTopo.NumServers() != len(addrs) {
		err = fmt.Errorf("%d addresses for %d shards × %d replicas", len(addrs), *shards, *replication)
	}
	if err == nil {
		// Clients dial through the fault proxy when one is armed; the
		// topology carries those client-facing addresses.
		shardTopo, err = shardTopo.WithAddrs(addrs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "brb-load:", err)
		os.Exit(2)
	}
	if rebalancing {
		// Epoch-versioned routing needs every server to hold the
		// topology, so ownership checks and NotOwner/stray rejections are
		// live before the epoch changes under the clients.
		if err := netstore.PushTopology(bg, shardTopo, netstore.RebalanceOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, "brb-load:", err)
			os.Exit(2)
		}
	}
	// dialStore connects one workload client.
	dialStore := func(client int) (*netstore.Cluster, error) {
		c, err := netstore.DialCluster(nil, netstore.ClusterOptions{
			Topology: shardTopo, Client: client, Clients: totalConns, Assigner: assigner,
			ProbeInterval: *probeInterval, CacheSize: *cacheSize,
		})
		if err != nil {
			return nil, err
		}
		if *controller != "" {
			if err := c.AttachController(*controller, 0); err != nil {
				c.Close()
				return nil, err
			}
		}
		return c, nil
	}
	readOpts := netstore.ReadOptions{Timeout: *deadline, Hedge: hedgePol}

	// Acked-write ground truth for the crash-recovery check: every
	// version some client saw acknowledged must be served by the
	// restarted replica afterwards. Each cluster client harvests its
	// written-version floors here before closing.
	var ackedMu sync.Mutex
	ackedVers := map[string]uint64{}
	harvestAcked := func(cc *netstore.Cluster) {
		if *crashReplica < 0 {
			return
		}
		ackedMu.Lock()
		defer ackedMu.Unlock()
		for i := 0; i < *keys; i++ {
			k := fmt.Sprintf("key:%d", i)
			if v, ok := cc.WrittenVersion(k); ok && v > ackedVers[k] {
				ackedVers[k] = v
			}
		}
	}

	// Load phase: heavy-tailed value sizes.
	if !*skipLoad {
		loader, err := dialStore(0)
		if err != nil {
			log.Fatalf("brb-load: %v", err)
		}
		sizes := randx.BoundedPareto{Alpha: 1.0, L: 256, H: 64 << 10}
		r := randx.New(*seed)
		start := time.Now()
		for i := 0; i < *keys; i++ {
			if err := loader.Set(bg, fmt.Sprintf("key:%d", i), make([]byte, int(sizes.Sample(r))), netstore.WriteOptions{}); err != nil {
				log.Fatalf("brb-load: load: %v", err)
			}
		}
		harvestAcked(loader)
		loader.Close()
		log.Printf("loaded %d keys in %s", *keys, time.Since(start).Round(time.Millisecond))
	}

	// The slow replica is armed only now, so the load phase ran at full
	// speed and the measurement phase sees the straggler from its first
	// task (the C3 scorer and adaptive hedge trigger learn it live).
	if *slowReplica >= 0 {
		injectors[*slowReplica].SetDelay(*slowLatency)
		log.Printf("fault: server %d (shard %d replica %d) slowed by %v per request",
			*slowReplica, *slowReplica / *replication, *slowReplica%*replication, *slowLatency)
	}

	// Measurement phase: the loadgen engine executes the op sequence —
	// generated or replayed, it cannot tell the difference.
	var memBefore runtime.MemStats
	if *allocStats {
		runtime.GC()
		runtime.ReadMemStats(&memBefore)
	}
	start := time.Now()
	if proxy != nil {
		go func() {
			time.Sleep(*killAfter)
			proxy.kill()
			log.Printf("fault: severed server %d (shard %d replica %d)",
				*killReplica, *killReplica / *replication, *killReplica%*replication)
			time.Sleep(*restartAfter)
			proxy.restore()
			log.Printf("fault: restored server %d", *killReplica)
		}()
	}
	// Crash recovery: hard-kill the victim (Kill aborts its WAL without
	// flushing — the in-process equivalent of SIGKILL), then restart it
	// from its data directory on the same address so the clients' revival
	// probes and hinted handoff find it where they left it.
	if *crashReplica >= 0 {
		go func() {
			time.Sleep(*crashAfter)
			spawned[*crashReplica].Kill()
			log.Printf("crash: hard-killed server %d (shard %d replica %d) — no flush, no final snapshot",
				*crashReplica, *crashReplica / *replication, *crashReplica%*replication)
			time.Sleep(*recoverAfter)
			srv, stats, err := netstore.NewDurableServer(kv.New(0), netstore.ServerOptions{
				Workers: 4, Shard: *crashReplica / *replication, CheckShard: true,
				Fault: injectors[*crashReplica], DataDir: spawnDirs[*crashReplica], Fsync: fsyncPolicy,
			})
			if err != nil {
				log.Fatalf("brb-load: crash restart: %v", err)
			}
			spawned[*crashReplica] = srv
			// The killed listener's port can take a beat to free; retry
			// the bind so the replica reappears at its old address.
			addr := realAddrs[*crashReplica]
			bindBy := time.Now().Add(10 * time.Second)
			var ln net.Listener
			for {
				ln, err = net.Listen("tcp", addr)
				if err == nil {
					break
				}
				if time.Now().After(bindBy) {
					log.Fatalf("brb-load: crash restart rebind %s: %v", addr, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			go func() { _ = srv.Serve(ln) }()
			log.Printf("crash: server %d restarted on %s (snapshot %d: %d entries, %d WAL records, %d corrupt)",
				*crashReplica, addr, stats.SnapshotIndex, stats.SnapshotEntries, stats.WALRecords, stats.CorruptRecords)
		}()
	}
	// Both fault flavors leave one replica down for a window mid-run; the
	// clients' post-run wait below keys off the common shape.
	downServer, outage := -1, time.Duration(0)
	switch {
	case proxy != nil:
		downServer, outage = *killReplica, *killAfter+*restartAfter
	case *crashReplica >= 0:
		downServer, outage = *crashReplica, *crashAfter+*recoverAfter
	}
	// Live rebalance: after the delay, grow (spawning the new shard's
	// replica servers in-process) or drain a shard while the measurement
	// clients keep issuing — they cross the epoch boundary via
	// NotOwner/stray-triggered refreshes, no restart.
	finalTopoCh := make(chan *cluster.ShardTopology, 1)
	if rebalancing {
		go func() {
			var delay time.Duration
			if *addShardAfter > 0 {
				delay = *addShardAfter
			} else {
				delay = *removeShardAfter
			}
			time.Sleep(delay)
			ropts := netstore.RebalanceOptions{Logf: log.Printf}
			if *addShardAfter > 0 {
				newID := shardTopo.NextShardID()
				newAddrs := make([]string, *replication)
				for r := range newAddrs {
					srv := netstore.NewServer(kv.New(0), netstore.ServerOptions{
						Workers: 4, Shard: newID, CheckShard: true,
					})
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						log.Fatalf("brb-load: new shard listener: %v", err)
					}
					go func() { _ = srv.Serve(ln) }()
					newAddrs[r] = ln.Addr().String()
				}
				log.Printf("rebalance: adding shard %d on %v", newID, newAddrs)
				nt, err := netstore.AddShard(bg, shardTopo, newAddrs, ropts)
				if err != nil {
					log.Fatalf("brb-load: add shard: %v", err)
				}
				finalTopoCh <- nt
				return
			}
			ids := shardTopo.ShardIDs()
			victim := ids[len(ids)-1]
			log.Printf("rebalance: draining shard %d", victim)
			nt, err := netstore.RemoveShard(bg, shardTopo, victim, ropts)
			if err != nil {
				log.Fatalf("brb-load: remove shard: %v", err)
			}
			finalTopoCh <- nt
		}()
	}
	// Under fault injection each worker outlives the outage: it holds
	// the hinted writes the dead replica missed, so it must stay up
	// until its prober revives the replica and replays them, then
	// sweep-read the keyspace once so read-repair catches anything the
	// hint buffer dropped. The engine runs this after a worker's last
	// op, before closing its store.
	postWorker := func(client string, worker int, c netstore.Store) {
		cc := c.(*netstore.Cluster) // every store of the run came from dialStore
		func() {
			if downServer < 0 {
				return
			}
			shard, rep := downServer / *replication, downServer%*replication
			if d := time.Until(start.Add(outage)); d > 0 {
				time.Sleep(d)
			}
			deadline := time.Now().Add(15 * time.Second)
			for time.Now().Before(deadline) && cc.ReplicaDown(shard, rep) {
				time.Sleep(50 * time.Millisecond)
			}
			if cc.ReplicaDown(shard, rep) {
				log.Printf("brb-load: %s/%d: replica %d not revived within 15s", client, worker, downServer)
				return
			}
			for lo := 0; lo < *keys; lo += 256 {
				hi := lo + 256
				if hi > *keys {
					hi = *keys
				}
				ks := make([]string, 0, hi-lo)
				for i := lo; i < hi; i++ {
					ks = append(ks, fmt.Sprintf("key:%d", i))
				}
				if _, err := c.Multiget(bg, ks, netstore.ReadOptions{}); err != nil {
					log.Printf("brb-load: %s/%d sweep: %v", client, worker, err)
					return
				}
			}
			// Read-repair pushes are asynchronous; give them a beat.
			time.Sleep(500 * time.Millisecond)
		}()
		harvestAcked(cc)
	}
	rep, err := loadgen.Run(bg, header.Classes, wops, loadgen.RunConfig{
		Dial: func(client string, worker, idx int) (netstore.Store, error) {
			c, err := dialStore(idx)
			if err != nil {
				return nil, err // not a typed-nil Store
			}
			return c, nil
		},
		ClassBias:   header.ClassBias,
		Timeout:     *deadline,
		ReadOptions: readOpts,
		OnError: func(client string, worker int, err error) {
			log.Printf("brb-load: %s/%d: %v", client, worker, err)
		},
		PostWorker: postWorker,
	})
	if err != nil {
		log.Fatalf("brb-load: run: %v", err)
	}
	elapsed := rep.Wall
	if proxy != nil {
		checkConvergence(shardTopo, realAddrs, *killReplica / *replication, *keys)
	}
	if *crashReplica >= 0 {
		checkCrashRecovery(shardTopo, realAddrs, *crashReplica, *keys, ackedVers)
	}
	if rebalancing {
		select {
		case nt := <-finalTopoCh:
			checkOwnerConvergence(nt, *keys)
		case <-time.After(30 * time.Second):
			fmt.Println("rebalance: FAILED — migration did not finish within 30s of the run")
			os.Exit(1)
		}
	}
	// The classic whole-run lines aggregate across classes; the
	// per-class lines follow with the SLO split.
	hist := metrics.NewLatencyHistogram()
	var expiredTasks, cancelledTasks uint64
	for i := range rep.Classes {
		hist.Merge(rep.Classes[i].Hist)
		expiredTasks += rep.Classes[i].Expired
		cancelledTasks += rep.Classes[i].Cancelled
	}
	s := hist.Summarize()
	fmt.Printf("assigner=%s tasks=%d wall=%s throughput=%.0f tasks/s\n",
		assigner.Name(), s.Count, elapsed.Round(time.Millisecond),
		float64(s.Count)/elapsed.Seconds())
	fmt.Printf("task latency: %s\n", s)
	fmt.Print(rep.String())
	// Deadline accounting: per-task outcomes from this run, plus the
	// client library's process-wide counters (which also cover internal
	// sub-batches and writes).
	fmt.Printf("deadlines: expired_tasks=%d cancelled_tasks=%d  netstore_expired_total=%d netstore_cancelled_total=%d\n",
		expiredTasks, cancelledTasks,
		metrics.CounterValue("netstore_expired_total"),
		metrics.CounterValue("netstore_cancelled_total"))
	if hedgePol.Mode != netstore.HedgeOff {
		h := metrics.CountersWithPrefix("netstore_hedge_")
		fmt.Printf("hedges: fired=%d won=%d wasted=%d\n",
			h["netstore_hedge_fired_total"], h["netstore_hedge_won_total"], h["netstore_hedge_wasted_total"])
	}
	if len(spawned) > 0 {
		// Served is per server, so the line exists only for servers
		// spawned in-process.
		var served uint64
		for _, srv := range spawned {
			if srv != nil {
				served += srv.Served()
			}
		}
		fmt.Printf("sched: served_keys=%d multiget_subtasks=%d multiget_batches=%d\n", served,
			metrics.CounterValue("netstore_multiget_subtasks_total"), metrics.CounterValue("netstore_multiget_batches_total"))
	}
	if *cacheSize > 0 {
		cc := metrics.CountersWithPrefix("netstore_cache_")
		fmt.Printf("cache: hits=%d misses=%d fills=%d invalidations=%d evictions=%d rejects=%d\n",
			cc["netstore_cache_hits_total"], cc["netstore_cache_misses_total"], cc["netstore_cache_fills_total"],
			cc["netstore_cache_invalidations_total"], cc["netstore_cache_evictions_total"], cc["netstore_cache_rejects_total"])
	}
	if *allocStats && s.Count > 0 {
		// Whole-process deltas over the measurement phase only (dialing
		// and the initial load happen before memBefore; teardown after
		// memAfter): coarser than testing.AllocsPerOp — the workload
		// generator and histogram are included — but directly
		// comparable across wire-path changes.
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		ops := float64(s.Count)
		fmt.Printf("allocstats: %.1f allocs/op  %.0f bytes/op  (%d mallocs, %s total over %d tasks)\n",
			float64(memAfter.Mallocs-memBefore.Mallocs)/ops,
			float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/ops,
			memAfter.Mallocs-memBefore.Mallocs,
			fmtBytes(memAfter.TotalAlloc-memBefore.TotalAlloc),
			s.Count)
	}
}

// faultProxy fronts one server address with a local TCP proxy so the
// run can sever ("kill") and restore ("restart") the replica's
// connectivity without owning the server process: while killed, live
// proxied connections are cut and new dials are accepted then dropped
// before any byte flows, so the client's revival probe keeps failing
// until restore.
type faultProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	killed bool
	conns  map[net.Conn]struct{}
}

func newFaultProxy(target string) (*faultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

func (p *faultProxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.killed {
			p.mu.Unlock()
			_ = conn.Close()
			continue
		}
		backend, err := net.Dial("tcp", p.target)
		if err != nil {
			p.mu.Unlock()
			_ = conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.conns[backend] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			_, _ = io.Copy(dst, src)
			_ = dst.Close()
			_ = src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go pipe(backend, conn)
		go pipe(conn, backend)
	}
}

func (p *faultProxy) kill() {
	p.mu.Lock()
	p.killed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
}

func (p *faultProxy) restore() {
	p.mu.Lock()
	p.killed = false
	p.mu.Unlock()
}

// checkConvergence scans every replica of the faulted shard directly
// (bypassing replica selection) and reports whether they hold identical
// versions for the whole keyspace — the acceptance check of a recovery
// run. Exits nonzero on divergence so CI can assert on it.
func checkConvergence(m *cluster.ShardTopology, realAddrs []string, shard, keys int) {
	var shardKeys []string
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key:%d", i)
		if m.ShardOfKey(k) == shard {
			shardKeys = append(shardKeys, k)
		}
	}
	if len(shardKeys) == 0 {
		log.Printf("convergence: shard %d holds no keys; nothing to check", shard)
		return
	}
	var ref []uint64
	mismatches := 0
	for r := 0; r < m.Replicas(); r++ {
		addr := realAddrs[m.Server(shard, r)]
		vers, _, err := netstore.ScanVersions(context.Background(), addr, shard, shardKeys, 5*time.Second)
		if err != nil {
			log.Printf("convergence: scan of replica %d (%s) failed: %v", r, addr, err)
			os.Exit(1)
		}
		if r == 0 {
			ref = vers
			continue
		}
		for i := range vers {
			if vers[i] != ref[i] {
				mismatches++
				if mismatches <= 5 {
					log.Printf("convergence: %s diverged: replica 0 v%d, replica %d v%d",
						shardKeys[i], ref[i], r, vers[i])
				}
			}
		}
	}
	if mismatches > 0 {
		fmt.Printf("convergence: FAILED — %d of %d shard-%d keys diverged across %d replicas\n",
			mismatches, len(shardKeys), shard, m.Replicas())
		os.Exit(1)
	}
	fmt.Printf("convergence: OK — all %d replicas of shard %d agree on %d key versions\n",
		m.Replicas(), shard, len(shardKeys))
}

// checkCrashRecovery is the acceptance scan of a -crash-replica run:
// the restarted replica must serve every acknowledged write of its
// shard at at least the version some client saw acked (zero acked-write
// loss through the hard kill — WAL replay for pre-crash writes, hinted
// handoff and read-repair for outage writes), and all replicas of the
// shard must agree on the whole keyspace. Exits nonzero otherwise so CI
// can assert on it.
func checkCrashRecovery(m *cluster.ShardTopology, realAddrs []string, server, keys int, acked map[string]uint64) {
	shard := server / m.Replicas()
	var shardKeys []string
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key:%d", i)
		if m.ShardOfKey(k) == shard {
			shardKeys = append(shardKeys, k)
		}
	}
	if len(shardKeys) == 0 {
		log.Printf("crash-recovery: shard %d holds no keys; nothing to check", shard)
		return
	}
	victim := server % m.Replicas()
	ackedChecked, bad := 0, 0
	var ref []uint64
	for r := 0; r < m.Replicas(); r++ {
		addr := realAddrs[m.Server(shard, r)]
		vers, found, err := netstore.ScanVersions(context.Background(), addr, shard, shardKeys, 5*time.Second)
		if err != nil {
			log.Printf("crash-recovery: scan of replica %d (%s) failed: %v", r, addr, err)
			os.Exit(1)
		}
		if r == victim {
			// The acked floor is checked against the restarted replica
			// itself, not the shard quorum: this is the server that lost
			// its memory and must have gotten everything back.
			for i, k := range shardKeys {
				floor, ok := acked[k]
				if !ok {
					continue
				}
				ackedChecked++
				if !found[i] || vers[i] < floor {
					bad++
					if bad <= 5 {
						log.Printf("crash-recovery: %s acked at v%d but restarted replica serves v%d (found=%v)",
							k, floor, vers[i], found[i])
					}
				}
			}
		}
		if r == 0 {
			ref = vers
			continue
		}
		for i := range vers {
			if vers[i] != ref[i] {
				bad++
				if bad <= 5 {
					log.Printf("crash-recovery: %s diverged: replica 0 v%d, replica %d v%d",
						shardKeys[i], ref[i], r, vers[i])
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("crash-recovery: FAILED — %d acked-write losses or divergences across %d shard-%d keys\n",
			bad, len(shardKeys), shard)
		os.Exit(1)
	}
	fmt.Printf("crash-recovery: OK — restarted replica serves all %d acked writes and all %d replicas of shard %d agree on %d keys\n",
		ackedChecked, m.Replicas(), shard, len(shardKeys))
}

// checkOwnerConvergence is the rebalance acceptance scan: after a live
// AddShard/RemoveShard, every key must be found on every replica of its
// NEW owner shard with identical versions. Exits nonzero otherwise so
// CI can assert on it.
func checkOwnerConvergence(t *cluster.ShardTopology, keys int) {
	byShard := map[int][]string{}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key:%d", i)
		byShard[t.ShardOfKey(k)] = append(byShard[t.ShardOfKey(k)], k)
	}
	bad := 0
	for sh, ks := range byShard {
		var ref []uint64
		for r := 0; r < t.Replicas(); r++ {
			addr := t.Addr(t.Server(sh, r))
			vers, found, err := netstore.ScanVersions(context.Background(), addr, sh, ks, 5*time.Second)
			if err != nil {
				log.Printf("rebalance scan: shard %d replica %d (%s): %v", sh, r, addr, err)
				os.Exit(1)
			}
			for i, k := range ks {
				if !found[i] {
					bad++
					if bad <= 5 {
						log.Printf("rebalance scan: %s missing on owner shard %d replica %d", k, sh, r)
					}
				}
			}
			if r == 0 {
				ref = vers
				continue
			}
			for i, k := range ks {
				if vers[i] != ref[i] {
					bad++
					if bad <= 5 {
						log.Printf("rebalance scan: %s diverged on shard %d: v%d vs v%d", k, sh, ref[i], vers[i])
					}
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("rebalance: FAILED — %d ownership/version violations across %d keys (epoch %d)\n",
			bad, keys, t.Epoch())
		os.Exit(1)
	}
	fmt.Printf("rebalance: OK — epoch %d, every one of %d keys on its owner with all %d replicas agreeing\n",
		t.Epoch(), keys, t.Replicas())
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
