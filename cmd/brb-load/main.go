// Command brb-load runs one declarative spec (internal/loadgen) against a
// cluster of brb-servers and reports task latency percentiles — the
// networked counterpart of brb-sim's Figure 2 runs.
//
// A run is a spec: keyspace, SLO classes, clients (arrival process, key
// popularity, value sizes, op mix, fan-out) and the faults injected under
// them (loadgen.FaultSpec lists the verbs). Flags describe only the
// deployment the spec meets and the client library's settings; nothing a
// spec says can be said by a flag. Without -spec the built-in default
// runs (-print-spec shows it):
//
//	brb-load -servers 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073
//	brb-load -spawn -shards 2 -replication 2 -spec cmd/brb-load/testdata/crash-recovery.json
//
// The deployment is -shards × -replication servers (default 1 × 3):
// -servers lists them in dense shard·R+replica order, as launched by
// `brb-server -shard s -group-listen ...`, or -spawn runs them in this
// process, each with a fault injector (and a WAL + snapshot directory
// when -data-dir is set or the spec crashes a server).
//
// Every run ends with one check of the store's promise, printed as
// `verify: OK` or `verify: FAILED` (exit 1); see harness.verify.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: 0 is a finished run whose verify
// passed (or -print-spec, -h), 2 a command line or spec that cannot run
// (nothing was dialed), 1 everything that went wrong after that — which
// returns through here, so the harness's cleanup always runs.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := configure(args, stdout, stderr)
	switch {
	case errors.Is(err, flag.ErrHelp) || err == nil && cfg == nil:
		return 0
	case err != nil:
		fmt.Fprintln(stderr, "brb-load:", err)
		return 2
	}
	if err := execute(context.Background(), cfg, stdout, log.New(stderr, "", log.LstdFlags)); err != nil {
		fmt.Fprintln(stderr, "brb-load:", err)
		return 1
	}
	return 0
}

// config is a validated command line and the workload it resolved to.
type config struct {
	dataDir                    string
	shards, replication, cache int
	spawn, skipLoad            bool
	probeInterval, deadline    time.Duration
	servers                    []string
	fsync                      kv.FsyncPolicy
	assigner                   core.Assigner
	hedge                      netstore.HedgePolicy
	// spec is the workload, spec.Faults its timeline, and ops what
	// Generate made of it; streams is how many client connections the
	// ops are issued over.
	spec    *loadgen.Spec
	ops     []loadgen.Op
	streams int
	// topo is the deployment's layout, addresses not yet bound; crashes
	// and rebalances say what the timeline will do to it.
	topo                *cluster.ShardTopology
	crashes, rebalances bool
}

// configure parses and validates the command line and resolves the
// workload. It returns (nil, nil) when -print-spec has been served.
func configure(args []string, stdout, stderr io.Writer) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("brb-load", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // run reports the error, once
	servers := fs.String("servers", "127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073", "comma-separated server addresses, dense shard·R+replica order")
	fs.IntVar(&cfg.shards, "shards", 1, "shard groups")
	fs.IntVar(&cfg.replication, "replication", 3, "replication factor (replicas per shard)")
	fs.BoolVar(&cfg.spawn, "spawn", false, "run the cluster's servers in this process instead of dialing -servers")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "with -spawn: WAL + snapshot root, one subdirectory per server (empty = a temp dir when the spec crashes a server, else memory-only)")
	fsync := fs.String("fsync", "always", "WAL fsync policy of durable spawned servers: always | interval | never")
	assigner := fs.String("assigner", "EqualMax", "priority assigner: EqualMax|UnifIncr|UnifIncrSub|Oblivious|SJFReq")
	fs.DurationVar(&cfg.probeInterval, "probe-interval", 250*time.Millisecond, "cluster client's replica revival probe interval")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "per-op deadline propagated to the servers (0 = the client's default request timeout); ops that exceed it count as expired")
	hedge := fs.String("hedge", "off", "hedged reads: off|fixed|adaptive")
	fs.IntVar(&cfg.cache, "cache", 0, "hot-key cache entries per client, an admission-filtered LRU (0 = off)")
	fs.BoolVar(&cfg.skipLoad, "skip-load", false, "skip the initial data load")
	specPath := fs.String("spec", "", "the run's spec, a JSON file (see internal/loadgen); empty = the built-in default")
	printSpec := fs.Bool("print-spec", false, "print the effective spec, every default filled in, as indented JSON and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
		}
		return nil, err
	}

	var err error
	if cfg.assigner, err = core.NewAssigner(*assigner); err != nil {
		return nil, err
	}
	mode, ok := map[string]netstore.HedgeMode{"off": netstore.HedgeOff, "fixed": netstore.HedgeFixed, "adaptive": netstore.HedgeAdaptive}[*hedge]
	if !ok {
		return nil, fmt.Errorf("-hedge %q: want off, fixed, or adaptive", *hedge)
	}
	cfg.hedge.Mode = mode
	if err := cfg.hedge.Validate(); err != nil {
		return nil, err
	}
	if cfg.fsync, err = kv.ParseFsyncPolicy(*fsync); err != nil {
		return nil, err
	}

	if cfg.spec, err = loadSpec(*specPath); err != nil {
		return nil, err
	}
	if *printSpec {
		js, err := json.MarshalIndent(cfg.spec, "", "  ")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", js)
		return nil, nil
	}
	if cfg.ops, err = loadgen.Generate(cfg.spec); err != nil {
		return nil, err
	}
	cfg.streams = loadgen.Streams(cfg.ops)
	if cfg.shards < 1 {
		return nil, errors.New("-shards must be at least 1 (a flat replicated tier is -shards 1)")
	}
	if cfg.topo, err = cluster.NewShardTopology(cluster.ShardConfig{Shards: cfg.shards, Replicas: cfg.replication}); err != nil {
		return nil, err
	}
	if cfg.servers = strings.Split(*servers, ","); !cfg.spawn && len(cfg.servers) != cfg.topo.NumServers() {
		return nil, fmt.Errorf("%d addresses for %d shards × %d replicas", len(cfg.servers), cfg.shards, cfg.replication)
	}
	return cfg, cfg.checkTimeline()
}

// defaultSpec is the run brb-load does when given no -spec: the
// SoundCloud-like closed loop of the paper's evaluation — multigets of
// mean fan-out 8.6 with 2 % playlist-sized bursts over Pareto-sized
// values. -print-spec shows it with every default spelled out.
const defaultSpec = `{
  "name": "default",
  "seed": 1,
  "keys": 1000,
  "clients": [
    {"name": "load", "workers": 4, "ops": 5000, "fanout": {"mean": 8.6, "burst_prob": 0.02}}
  ]
}`

// loadSpec returns the normalized spec in the file at path, or the
// default when path is empty.
func loadSpec(path string) (*loadgen.Spec, error) {
	data, from := []byte(defaultSpec), "built-in default spec"
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		from = path
	}
	spec, err := loadgen.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", from, err)
	}
	return spec, nil
}

// checkTimeline walks the fault timeline over the deployment it will be
// played on — shards come and go with add-shard/remove-shard — and
// rejects an event the harness could not carry out.
func (cfg *config) checkTimeline() error {
	t := cfg.topo
	for i, f := range cfg.spec.Faults {
		var err error
		shard, replica := f.Replica()
		inProcess := f.Do == "crash" || f.Do == "restart" || f.Do == "slow"
		switch {
		case f.Do == "add-shard":
			t, err = t.AddShard()
			cfg.rebalances = true
		case f.Do == "remove-shard":
			t, err = t.RemoveShard(t.ShardIDs()[t.Shards()-1])
			cfg.rebalances = true
		case !t.HasShard(shard) || replica >= t.Replicas():
			err = fmt.Errorf("no such replica: the cluster has shards %v × %d replicas then", t.ShardIDs(), t.Replicas())
		case inProcess && !cfg.spawn:
			err = errors.New("needs -spawn (it acts on an in-process server)")
		case f.Do == "crash" && t.Replicas() < 2:
			err = errors.New("needs -replication >= 2 (writes during the outage need a surviving replica)")
		case f.Do == "crash":
			cfg.crashes = true
		}
		if err != nil {
			return fmt.Errorf("faults[%d] (%s %s): %w", i, f.Do, f.Target, err)
		}
	}
	return nil
}

// execute performs a configured run: build the harness, load, measure
// under the fault timeline, verify, report.
func execute(ctx context.Context, cfg *config, out io.Writer, logger *log.Logger) error {
	h, err := newHarness(ctx, cfg, out, logger)
	if err != nil {
		return err
	}
	defer h.close()
	if !cfg.skipLoad {
		if err := h.load(); err != nil {
			return err
		}
	}
	rep, err := h.measure()
	if err != nil {
		return err
	}
	err = h.verify()
	h.report(rep)
	return err
}

// node is one in-process server and what survives its crashes.
type node struct {
	shard  int
	addr   string // where it listens; a restart rebinds it
	dir    string // WAL + snapshot directory ("" = memory-only)
	inj    *netstore.FaultInjector
	srv    *netstore.Server
	served uint64 // keys served by incarnations a crash ended
}

// harness owns everything a run acquires — in-process servers, their WAL
// tree, fault proxies — and the topology as the timeline changes it.
// topo, nodes, proxies, held and faultErr belong to the timeline
// goroutine (see measure) from its start until done is closed.
type harness struct {
	cfg    *config
	out    io.Writer
	log    *log.Logger
	ctx    context.Context
	cancel context.CancelFunc
	keys   []string // the spec's keyspace, "key:0" …

	walRoot  string // durable servers' root ("" = memory-only servers)
	tempRoot bool   // walRoot is a temp dir this run created

	initial  *cluster.ShardTopology // what clients dial; never changes
	topo     *cluster.ShardTopology // current, client-facing addresses
	nodes    map[string]*node       // in-process servers by "shard/replica"
	proxies  map[string]*faultProxy // severable replicas by "shard/replica"
	held     int                    // replicas a sever/crash is holding down
	faultErr error                  // what stopped the timeline early
	done     chan struct{}          // closed when the timeline has played out

	mu      sync.Mutex
	acked   map[string]uint64   // highest version any client saw acknowledged
	clients []*netstore.Cluster // every client dial made, for report's counts
}

func newHarness(ctx context.Context, cfg *config, out io.Writer, logger *log.Logger) (h *harness, err error) {
	h = &harness{cfg: cfg, out: out, log: logger, nodes: map[string]*node{}, proxies: map[string]*faultProxy{}, acked: map[string]uint64{}}
	h.ctx, h.cancel = context.WithCancel(ctx)
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	for i := 0; i < cfg.spec.Keys; i++ {
		h.keys = append(h.keys, fmt.Sprintf("key:%d", i))
	}
	if cfg.spawn && (cfg.dataDir != "" || cfg.crashes) {
		if h.walRoot = cfg.dataDir; h.walRoot == "" {
			if h.walRoot, err = os.MkdirTemp("", "brb-load-wal-"); err != nil {
				return nil, err
			}
			h.tempRoot = true
		}
		logger.Printf("durable spawn: WAL + snapshots under %s (fsync=%s)", h.walRoot, cfg.fsync)
	}
	addrs := make([]string, cfg.topo.NumServers())
	for sid := range addrs {
		if !cfg.spawn {
			addrs[sid] = cfg.servers[sid]
		}
		if addrs[sid], err = h.replica(sid/cfg.replication, sid%cfg.replication, addrs[sid]); err != nil {
			return nil, err
		}
	}
	if h.topo, err = cfg.topo.WithAddrs(addrs); err != nil {
		return nil, err
	}
	h.initial = h.topo
	if cfg.rebalances {
		// Epoch-versioned routing needs every server to hold the
		// topology, so ownership checks and NotOwner/stray rejections are
		// live before the epoch changes under the clients.
		err = netstore.PushTopology(h.ctx, h.topo)
	}
	return h, err
}

// close releases what the run acquired; the timeline goroutine is
// stopped first, so nothing is started behind close's back.
func (h *harness) close() {
	h.cancel()
	if h.done != nil {
		<-h.done
	}
	for _, p := range h.proxies {
		p.close()
	}
	for _, n := range h.nodes {
		n.srv.Close()
	}
	if h.tempRoot {
		_ = os.RemoveAll(h.walRoot) // best effort: a temp dir
	}
}

// replica readies one replica and returns the address clients dial for
// it. addr is where it already serves; empty means it is this process's
// to run — the one constructor behind the initial servers and shards
// added live, so both get a fault injector, durability when the run is
// durable, and a place in the served-keys tally. A replica the timeline
// severs is fronted by a TCP proxy.
func (h *harness) replica(shard, replica int, addr string) (string, error) {
	target := fmt.Sprintf("%d/%d", shard, replica)
	if addr == "" {
		n := &node{shard: shard, addr: "127.0.0.1:0", inj: netstore.NewFaultInjector()}
		if h.walRoot != "" {
			n.dir = filepath.Join(h.walRoot, fmt.Sprintf("server-%d", len(h.nodes)))
		}
		if _, err := h.startNode(n); err != nil {
			return "", err
		}
		h.nodes[target], addr = n, n.addr
	}
	for _, f := range h.cfg.spec.Faults {
		if f.Do == "sever" && f.Target == target && h.proxies[target] == nil {
			p, err := newFaultProxy(addr)
			if err != nil {
				return "", err
			}
			h.proxies[target], addr = p, p.addr()
		}
	}
	return addr, nil
}

// startNode brings n's server up — first start or restart after a crash
// — recovering n.dir when the node is durable and binding n.addr.
func (h *harness) startNode(n *node) (stats kv.ReplayStats, err error) {
	opts := netstore.ServerOptions{Workers: 4, Shard: n.shard, CheckShard: true, Fault: n.inj}
	if n.dir != "" {
		opts.DataDir, opts.Fsync = n.dir, h.cfg.fsync
		if n.srv, stats, err = netstore.NewDurableServer(kv.New(0), opts); err != nil {
			return stats, fmt.Errorf("durable server in %s: %w", n.dir, err)
		}
	} else {
		n.srv = netstore.NewServer(kv.New(0), opts)
	}
	// A killed listener's port can take a beat to free; retry the bind so
	// a restarted replica reappears where the clients' probes look for it.
	var ln net.Listener
	for bindBy := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if ln, err = net.Listen("tcp", n.addr); err == nil {
			break
		}
		if time.Now().After(bindBy) || h.ctx.Err() != nil {
			n.srv.Close()
			return stats, err
		}
	}
	n.addr = ln.Addr().String()
	go func(srv *netstore.Server) { _ = srv.Serve(ln) }(n.srv) // returns when srv is closed or killed
	return stats, nil
}

// dial connects one workload client (it is RunConfig.Dial) to the
// initial topology; clients follow the timeline's epoch changes
// themselves.
func (h *harness) dial(_ string, _, idx int) (netstore.Store, error) {
	c, err := netstore.DialCluster(nil, netstore.ClusterOptions{
		Topology: h.initial, Client: idx, Clients: h.cfg.streams, Assigner: h.cfg.assigner,
		ProbeInterval: h.cfg.probeInterval, CacheSize: h.cfg.cache,
	})
	if err != nil {
		return nil, err // not a typed-nil Store
	}
	h.mu.Lock()
	h.clients = append(h.clients, c)
	h.mu.Unlock()
	return c, nil
}

// harvest folds a client's acknowledged-write floors into the run's
// ground truth; every client passes through here before it closes.
func (h *harness) harvest(st netstore.Store) {
	c := st.(*netstore.Cluster) // every store of the run came from dial
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range h.keys {
		if v, ok := c.WrittenVersion(k); ok && v > h.acked[k] {
			h.acked[k] = v
		}
	}
}

// load writes every key once, with heavy-tailed value sizes.
func (h *harness) load() error {
	loader, err := h.dial("", 0, 0)
	if err != nil {
		return err
	}
	defer loader.Close()
	sizes := randx.BoundedPareto{Alpha: 1.0, L: 256, H: 64 << 10}
	r := randx.New(h.cfg.spec.Seed)
	start := time.Now()
	for _, k := range h.keys {
		if err := loader.Set(h.ctx, k, make([]byte, int(sizes.Sample(r))), netstore.WriteOptions{}); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}
	h.harvest(loader)
	h.log.Printf("loaded %d keys in %s", len(h.keys), time.Since(start).Round(time.Millisecond))
	return nil
}

// measure runs the op sequence with the fault timeline playing beside
// it.
func (h *harness) measure() (*loadgen.Report, error) {
	cfg := h.cfg
	start, done := time.Now(), make(chan struct{})
	h.done = done
	// The run's one fault-scheduling goroutine: it injects each event of
	// the timeline at its time (those at 0 before the workers have
	// dialed) and stops at the first that fails.
	go func() {
		defer close(done)
		for _, f := range cfg.spec.Faults {
			t := time.NewTimer(time.Until(start.Add(time.Duration(f.At))))
			select {
			case <-t.C:
			case <-h.ctx.Done():
				t.Stop()
				return
			}
			if h.faultErr = h.inject(f); h.faultErr != nil {
				h.log.Printf("brb-load: %v; timeline abandoned", h.faultErr)
				return
			}
		}
	}()
	rep, err := loadgen.Run(h.ctx, cfg.spec.Classes, cfg.ops, loadgen.RunConfig{
		Dial:        h.dial,
		Timeout:     cfg.deadline,
		ReadOptions: netstore.ReadOptions{Timeout: cfg.deadline, Hedge: cfg.hedge},
		OnError: func(client string, worker int, err error) {
			h.log.Printf("brb-load: %s/%d: %v", client, worker, err)
		},
		PostWorker: h.epilogue,
	})
	<-h.done // a failed dial skips the epilogues that would have waited
	for _, n := range h.nodes {
		n.inj.SetDelay(0) // slowness is for the measurement; verify reads state, not latency
	}
	if err == nil {
		err = h.faultErr
	}
	return rep, err
}

// inject carries out one timeline event and logs it.
func (h *harness) inject(f loadgen.FaultSpec) error {
	var err error
	var detail string
	next, n := h.topo, h.nodes[f.Target]
	ropts := netstore.RebalanceOptions{Logf: h.log.Printf}
	switch f.Do {
	case "sever", "restore":
		h.proxies[f.Target].sever(f.Do == "sever")
	case "slow":
		n.inj.SetDelay(time.Duration(f.Arg))
		detail = fmt.Sprintf(" — +%v per request", time.Duration(f.Arg))
	case "crash":
		// Kill aborts the WAL without flushing: the in-process equivalent
		// of SIGKILL.
		n.srv.Kill()
		n.served += n.srv.Served()
		detail = " — hard kill: no flush, no final snapshot"
	case "restart":
		var stats kv.ReplayStats
		stats, err = h.startNode(n)
		detail = fmt.Sprintf(" — on %s from snapshot %d: %d entries, %d WAL records, %d corrupt",
			n.addr, stats.SnapshotIndex, stats.SnapshotEntries, stats.WALRecords, stats.CorruptRecords)
	case "add-shard":
		// The new shard's replicas run in this process, whether or not the
		// rest of the cluster does.
		id, addrs := h.topo.NextShardID(), make([]string, h.topo.Replicas())
		for r := 0; r < len(addrs) && err == nil; r++ {
			addrs[r], err = h.replica(id, r, "")
		}
		if err == nil {
			next, err = netstore.AddShard(h.ctx, h.topo, addrs, ropts)
		}
		detail = fmt.Sprintf("— shard %d on %v", id, addrs)
	case "remove-shard":
		id := h.topo.ShardIDs()[h.topo.Shards()-1]
		next, err = netstore.RemoveShard(h.ctx, h.topo, id, ropts)
		detail = fmt.Sprintf("— shard %d drained", id)
	}
	if err != nil {
		return fmt.Errorf("fault %s %s: %w", f.Do, f.Target, err)
	}
	h.topo = next
	switch f.Do {
	case "sever", "crash":
		h.held++
	case "restore", "restart":
		h.held--
	}
	h.log.Printf("fault: +%v %s %s%s", time.Duration(f.At), f.Do, f.Target, detail)
	return nil
}

// epilogue runs after a worker's last op, before its client closes. The
// client may hold the only copy of writes a downed replica missed (its
// hints), so it stays until the timeline has played out and — when
// nothing is left held down — its prober has every replica back, which
// means it has replayed them their hints (and caught up any whose hint
// buffer overflowed).
func (h *harness) epilogue(client string, worker int, st netstore.Store) {
	cc := st.(*netstore.Cluster)
	<-h.done
	for giveUp := time.Now().Add(15 * time.Second); h.held == 0 && cc.DownReplicas() > 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(giveUp) || h.ctx.Err() != nil {
			h.log.Printf("brb-load: %s/%d: %d replicas not revived within 15s", client, worker, cc.DownReplicas())
			break
		}
	}
	h.harvest(st)
}

var errVerify = errors.New("verify failed")

// verify checks the store's promise after a run, scanning every replica
// directly (no replica selection, no proxy): under the final topology
// every replica of a key's owner shard reports the same version, and
// that version is at least the highest version any client of the run
// saw acknowledged. Divergence after an outage, an acked write lost
// through a crash and a key that did not reach its new owner in a
// rebalance are all violations of that one sentence.
func (h *harness) verify() error {
	t := h.topo
	byShard := map[int][]string{}
	for _, k := range h.keys {
		shard := t.ShardOfKey(k)
		byShard[shard] = append(byShard[shard], k)
	}
	diverged, lost := 0, 0
	for _, shard := range t.ShardIDs() {
		// Paged, so no response frame carries a whole shard's values.
		for ks := byShard[shard]; len(ks) > 0; ks = ks[min(512, len(ks)):] {
			page := ks[:min(512, len(ks))]
			var ref []uint64
			for r := 0; r < t.Replicas(); r++ {
				addr := t.Addr(t.Server(shard, r))
				if p := h.proxies[fmt.Sprintf("%d/%d", shard, r)]; p != nil {
					addr = p.target
				}
				vers, _, err := netstore.ScanVersions(h.ctx, addr, shard, page, 5*time.Second)
				if err != nil {
					fmt.Fprintf(h.out, "verify: FAILED — scan of shard %d replica %d (%s): %v\n", shard, r, addr, err)
					return errVerify
				}
				if r == 0 {
					ref = vers
				}
				for i, k := range page {
					if vers[i] != ref[i] {
						if diverged++; diverged <= 5 {
							h.log.Printf("verify: %s diverged on shard %d: replica 0 v%d, replica %d v%d", k, shard, ref[i], r, vers[i])
						}
					}
					if vers[i] < h.acked[k] {
						if lost++; lost <= 5 {
							h.log.Printf("verify: %s acked at v%d but shard %d replica %d serves v%d", k, h.acked[k], shard, r, vers[i])
						}
					}
				}
			}
		}
	}
	if diverged+lost > 0 {
		fmt.Fprintf(h.out, "verify: FAILED — %d divergences, %d acked-write losses over %d keys × %d replicas (epoch %d)\n",
			diverged, lost, len(h.keys), t.Replicas(), t.Epoch())
		return errVerify
	}
	fmt.Fprintf(h.out, "verify: OK — epoch %d, %d keys: all %d replicas of each owner shard agree, at or above all %d acked versions\n",
		t.Epoch(), len(h.keys), t.Replicas(), len(h.acked))
	return nil
}

// report prints the run's result lines: whole-run first, then per SLO
// class, then the counts of every client the run dialed (all closed by
// now) and, with -spawn, of its servers.
func (h *harness) report(rep *loadgen.Report) {
	hist := metrics.NewLatencyHistogram()
	var expired, cancelled uint64
	for i := range rep.Classes {
		hist.Merge(rep.Classes[i].Hist)
		expired += rep.Classes[i].Expired
		cancelled += rep.Classes[i].Cancelled
	}
	var cs netstore.ClusterStats
	for _, c := range h.clients {
		s := c.Stats()
		cs.Expired += s.Expired
		cs.Cancelled += s.Cancelled
		cs.MultigetSubtasks += s.MultigetSubtasks
		cs.MultigetBatches += s.MultigetBatches
		cs.HedgesFired += s.HedgesFired
		cs.HedgesWon += s.HedgesWon
		cs.HedgesWasted += s.HedgesWasted
		cs.CacheHits += s.CacheHits
		cs.CacheMisses += s.CacheMisses
		cs.CacheFills += s.CacheFills
		cs.CacheInvalidations += s.CacheInvalidations
		cs.CacheEvictions += s.CacheEvictions
		cs.CacheRejects += s.CacheRejects
	}
	s := hist.Summarize()
	fmt.Fprintf(h.out, "assigner=%s tasks=%d wall=%s throughput=%.0f tasks/s\n",
		h.cfg.assigner.Name(), s.Count, rep.Wall.Round(time.Millisecond), float64(s.Count)/rep.Wall.Seconds())
	fmt.Fprintf(h.out, "task latency: %s\n", s)
	fmt.Fprint(h.out, rep.String())
	// expired_ops and cancelled_ops count every client call, the
	// loader's included.
	fmt.Fprintf(h.out, "deadlines: expired_tasks=%d cancelled_tasks=%d  expired_ops=%d cancelled_ops=%d\n",
		expired, cancelled, cs.Expired, cs.Cancelled)
	if h.cfg.hedge.Mode != netstore.HedgeOff {
		fmt.Fprintf(h.out, "hedges: fired=%d won=%d wasted=%d\n", cs.HedgesFired, cs.HedgesWon, cs.HedgesWasted)
	}
	if h.cfg.spawn {
		// Served is per server, so the line exists only when every server
		// of the cluster ran in this process.
		var served uint64
		for _, n := range h.nodes {
			served += n.served + n.srv.Served()
		}
		fmt.Fprintf(h.out, "sched: served_keys=%d multiget_subtasks=%d multiget_batches=%d\n", served,
			cs.MultigetSubtasks, cs.MultigetBatches)
	}
	if h.cfg.cache > 0 {
		fmt.Fprintf(h.out, "cache: hits=%d misses=%d fills=%d invalidations=%d evictions=%d rejects=%d\n",
			cs.CacheHits, cs.CacheMisses, cs.CacheFills, cs.CacheInvalidations, cs.CacheEvictions, cs.CacheRejects)
	}
}
