package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"github.com/brb-repro/brb/internal/kv"
	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
)

// runConfig is what one phase of one workload is run with.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	// handles is H: the shared netstore.Cluster handles every stream is
	// multiplexed onto; closed loops run 2·H callers.
	handles   int
	quantumMs float64 // the host's measured time.Sleep quantum
	outDir    string
}

// setups is how many times an untraced run sets the cluster up: it
// reports the median as setup_s and measures on the last. A traced run
// sets up once.
const setups = 3

// traceSeconds is the length of the traced phase when one command runs
// both phases.
const traceSeconds = 8

// traceLeadIn is the share of a traced run that passes before the
// probes, the sampler and the counter window start: its latencies are
// the untraced reference trace.overhead_frac compares against.
const traceLeadIn = 0.25

// lateQuanta is how many timer quanta behind schedule the paced
// generator may run at its 90th percentile before a run is declared
// invalid. A sleep-paced wake-up is up to one quantum late, so a
// generator keeping its schedule sits at 0.9–1.0 quanta there (every
// one of 50 calibration runs did); past two, a tenth of the ops were
// issued late by more than pacing explains and the latencies are the
// harness's, not the store's. The guard is not on the p99 the lateness
// is reported at: one 100 ms host stall holds 1 % of a phase's ops and
// put that past two quanta in 8 of those 50 runs.
const lateQuanta = 2

// maxOpSpans caps the op traces written to a spans file; busier runs
// write every k-th op.
const maxOpSpans = 20000

var units = func() map[string]string {
	u := map[string]string{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			u[d.name] = d.unit
		}
	}
	return u
}()

func (r *runResult) set(name string, v float64, n int) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	r.Metrics[name] = value{Value: v, Unit: unit, N: n}
}

func millis(ns int64) float64 { return float64(ns) / 1e6 }

// runWorkload sets the workload's cluster up, drives one phase against
// it and reports the phase's metrics: the end-to-end ones with tracing
// off, the per-layer ones with tracing on.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Valid: true, Metrics: map[string]value{}}
	keys := keyNames(keyspace)
	callers := 2 * cfg.handles

	// Set-up: generate the schedule, spawn, load, warm. Timed whole,
	// several times over in an untraced run, and kept out of every
	// other number.
	reps := setups
	if cfg.trace {
		reps = 1
	}
	var tc *testCluster
	var spec *loadgen.Spec
	var ops []loadgen.Op
	var setupS, generateMs []float64
	for rep := 0; rep < reps; rep++ {
		if tc != nil {
			tc.close()
		}
		t0 := time.Now()
		spec = w.spec(cfg.seed, cfg.seconds, callers)
		var err error
		if ops, err = loadgen.Generate(spec); err != nil {
			return nil, err
		}
		generateMs = append(generateMs, millis(time.Since(t0).Nanoseconds()))
		if tc, err = spawn(w, cfg.handles, filepath.Join(cfg.outDir, "data")); err != nil {
			return nil, err
		}
		if err := tc.load(ctx, keys); err != nil {
			tc.close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer tc.close()
	if w.slowDelay > 0 {
		tc.injectors[0].SetDelay(w.slowDelay)
	}

	// The phase.
	d := newDriver(tc, keys, spec)
	length := time.Duration(cfg.seconds * float64(time.Second))
	horizon := length.Nanoseconds()
	if w.open {
		horizon = ops[len(ops)-1].TS
	}
	start := time.Now()
	var tr *tracer
	var onTrace func()
	if cfg.trace {
		tr = newTracer(tc, keys, start)
		onTrace = tr.begin
	}
	traceFrom := int64(traceLeadIn * float64(horizon))
	var recs []opRec
	probeFailures := 0
	if w.open {
		recs = d.runOpen(ctx, start, ops, traceFrom, onTrace, 3*length+10*time.Second)
	} else {
		recs = d.runClosed(ctx, start, ops, length, traceFrom, onTrace)
	}
	if tr != nil {
		tr.end()
		// A probe that got a wrong answer or lost its connection is a
		// failed attempt like any op's.
		for _, err := range tr.errs {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		}
		probeFailures = len(tr.errs)
	}
	for _, h := range tc.handles {
		for sh := 0; sh < w.shards; sh++ {
			for rep := 0; rep < w.replicas; rep++ {
				if h.ReplicaDown(sh, rep) {
					res.invalidate(fmt.Sprintf("a client marked shard %d replica %d down", sh, rep))
				}
			}
		}
	}

	all := summarize(recs, 0, math.MaxInt64, w.readClass, tc.sizes)
	// The dispatcher gives up on a store too far behind; what it did not
	// issue, the store did not serve.
	unissued := 0
	if w.open && len(recs) < len(ops) {
		unissued = len(ops) - len(recs)
		fmt.Fprintf(os.Stderr, "bench: %s: schedule not fully issued: %d of %d ops\n", w.name, len(recs), len(ops))
	}
	res.Attempted = len(recs) + unissued + probeFailures
	res.Failed = all.failed + unissued + probeFailures
	if w.open {
		if late := quantile(all.lateMs, 0.9); late > lateQuanta*cfg.quantumMs {
			res.invalidate(fmt.Sprintf("generator ran late: a tenth of the ops issued %.3f ms or more behind schedule, timer quantum %.3f ms", late, cfg.quantumMs))
		}
	}

	if !cfg.trace {
		res.set("setup_s", quantile(setupS, 0.5), len(setupS))
		res.set("read_p50_ms", all.readMs.quantile(0.5), all.readMs.len())
		res.set("read_win_p99_over_p50", all.readMs.windowed(all.first, all.lastDue+1, tailRatio), all.readMs.len())
		res.set("keys_per_s", ratio(float64(all.keysRead), all.wallS()), all.keysRead)
		res.set("ops_per_s", ratio(float64(all.ok), all.wallS()), all.ok)
	} else {
		log := &spanLog{}
		opSpans(log, recs, tr.before.at.Nanoseconds())
		probeSpans(log, tr.probes)
		if err := tr.layerMetrics(ctx, res, cfg, recs, traceFrom, log, &all, quantile(generateMs, 0.5)); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		res.SpansFile = filepath.Join(cfg.outDir, w.name+".spans.jsonl")
		if err := log.writeFile(res.SpansFile); err != nil {
			return nil, err
		}
	}

	if w.durable {
		check, err := tc.killCheck(ctx, keys)
		if err != nil {
			return nil, err
		}
		res.Attempted += check.checked
		res.Failed += check.lost
		if cfg.trace {
			res.set("kv.wal.replay_ms", check.replayMs, 1)
			res.set("kv.wal.replay_records", float64(check.stats.WALRecords), 1)
			res.set("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
		}
	}
	return res, nil
}

// summary is what a set of op records says end to end.
type summary struct {
	readMs                series    // latencies of successful reads of readClass, by due time
	backgroundMs, writeMs []float64 // latencies of the other successful ops
	smallMs, burstMs      []float64 // readMs split by fan-out (< 24, ≥ 24)
	lateMs                []float64 // issue time behind due time, every op
	ok, failed            int
	reads, keysRead       int
	setBytes              int
	first, lastDue, last  int64 // first due, last due, last done (ns since phase start)
}

// wallS is the time the summarized ops spanned.
func (s *summary) wallS() float64 { return float64(s.last-s.first) / 1e9 }

// burstFanout splits small tasks from playlist-sized bursts.
const burstFanout = 24

// summarize folds the records issued in [from, until) (ns since phase
// start). Reads of readClass ("" = all) feed readMs, reads of other
// classes backgroundMs. sizes are the dataset's value sizes.
func summarize(recs []opRec, from, until int64, readClass string, sizes []int) summary {
	s := summary{first: -1}
	for i := range recs {
		r := &recs[i]
		if r.issued < from || r.issued >= until {
			continue
		}
		if s.first < 0 || r.due < s.first {
			s.first = r.due
		}
		s.last, s.lastDue = max(s.last, r.done), max(s.lastDue, r.due)
		s.lateMs = append(s.lateMs, millis(r.issued-r.due))
		if r.op.Kind == loadgen.OpGet {
			s.reads++
		}
		if r.failed {
			s.failed++
			continue
		}
		s.ok++
		lat := millis(r.latency())
		switch r.op.Kind {
		case loadgen.OpSet:
			s.writeMs = append(s.writeMs, lat)
			s.setBytes += sizes[r.op.Keys[0]]
		case loadgen.OpGet:
			s.keysRead += len(r.op.Keys)
			if readClass != "" && r.op.Class != readClass {
				s.backgroundMs = append(s.backgroundMs, lat)
				continue
			}
			s.readMs.add(r.due, lat)
			if len(r.op.Keys) >= burstFanout {
				s.burstMs = append(s.burstMs, lat)
			} else {
				s.smallMs = append(s.smallMs, lat)
			}
		}
	}
	if s.first < 0 {
		s.first = 0
	}
	return s
}

// opSpans records the traces of the ops issued in the traced window:
// root `op` (due → done) with children `loadgen.wait` (due → issued)
// and the netstore.Cluster call (issued → returned).
func opSpans(log *spanLog, recs []opRec, from int64) {
	n := 0
	for i := range recs {
		if recs[i].issued >= from {
			n++
		}
	}
	stride := max(1, (n+maxOpSpans-1)/maxOpSpans)
	seen := 0
	for i := range recs {
		r := &recs[i]
		if r.issued < from {
			continue
		}
		if seen++; (seen-1)%stride != 0 {
			continue
		}
		root := log.root("op", r.due, r.done, map[string]any{
			"class": r.op.Class, "kind": r.op.Kind, "fanout": len(r.op.Keys), "failed": r.failed,
		})
		log.child(root, "loadgen.wait", r.due, r.issued)
		call := "netstore.cluster.multiget"
		if r.op.Kind == loadgen.OpSet {
			call = "netstore.cluster.set"
		}
		log.child(root, call, r.issued, r.done)
	}
}

// probeSpans lays each probe round trip out from the fields the server
// reported: half the unaccounted time on the way in, the queue wait,
// the service, the other half on the way back.
func probeSpans(log *spanLog, probes [][]probeSample) {
	for server, ps := range probes {
		for i := range ps {
			p := &ps[i]
			end := p.start + p.rtt
			root := log.root("probe", p.start, end, map[string]any{"server": server, "queue_len": p.queueLen})
			t := p.start + p.wireKernel()/2
			log.child(root, "wire_kernel", p.start, t)
			log.child(root, "netstore.sched.wait", t, min(end, t+p.wait))
			t = min(end, t+p.wait)
			log.child(root, "netstore.server.service", t, min(end, t+p.service))
			log.child(root, "wire_kernel", min(end, t+p.service), end)
		}
	}
}

// layerMetrics fills every per-layer metric of a traced run from the
// phase's records (all summarizes them), the tracer's window and the
// layer probes it runs now, on the idle cluster; the probes' spans go
// to log.
func (tr *tracer) layerMetrics(ctx context.Context, res *runResult, cfg runConfig, recs []opRec, traceFrom int64, log *spanLog, all *summary, generateMs float64) error {
	tc, w := tr.tc, tr.tc.w
	for _, d := range perLayer {
		res.set(d.name, 0, 0)
	}
	before, after := &tr.before, &tr.after
	lead := summarize(recs, 0, before.at.Nanoseconds(), w.readClass, tc.sizes)
	win := summarize(recs, before.at.Nanoseconds(), math.MaxInt64, w.readClass, tc.sizes)
	winS := (after.at - before.at).Seconds()

	// End-to-end views, whole traced run.
	res.set("read_p99_ms", all.readMs.quantile(0.99), all.readMs.len())
	res.set("read_win_p99_ms", all.readMs.windowed(all.first, all.lastDue+1, p99), all.readMs.len())
	res.set("write_p50_ms", quantile(all.writeMs, 0.5), len(all.writeMs))
	res.set("write_p99_ms", quantile(all.writeMs, 0.99), len(all.writeMs))
	res.set("background_read_p99_ms", quantile(all.backgroundMs, 0.99), len(all.backgroundMs))
	res.set("fail_frac", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	res.set("core.small_task_p99_ms", quantile(all.smallMs, 0.99), len(all.smallMs))
	res.set("core.burst_task_p99_ms", quantile(all.burstMs, 0.99), len(all.burstMs))
	res.set("core.read_p999_ms", all.readMs.quantile(0.999), all.readMs.len())

	res.set("loadgen.generate_ms", generateMs, 1)
	res.set("loadgen.timer_quantum_ms", cfg.quantumMs, 1)
	if w.open {
		res.set("loadgen.late_p99_ms", quantile(all.lateMs, 0.99), len(all.lateMs))
	}

	// Tracing overhead: the traced window against the run's own
	// untraced lead-in — throughput for closed loops, median read
	// latency for open ones.
	res.set("trace.read_p50_ms", win.readMs.quantile(0.5), win.readMs.len())
	if w.open {
		base := lead.readMs.quantile(0.5)
		res.set("trace.overhead_frac", ratio(win.readMs.quantile(0.5)-base, base), lead.readMs.len())
	} else {
		base := ratio(float64(lead.keysRead), before.at.Seconds())
		res.set("trace.overhead_frac", ratio(base-ratio(float64(win.keysRead), winS), base), lead.reads)
	}

	// Counts taken at the window's boundaries.
	ops := win.ok + win.failed
	var served, steals float64
	imbalance := 0.0
	for sh := 0; sh < w.shards; sh++ {
		var shardServed, most float64
		for rep := 0; rep < w.replicas; rep++ {
			i := sh*w.replicas + rep
			d := float64(after.served[i] - before.served[i])
			shardServed += d
			most = max(most, d)
			steals += float64(after.steals[i] - before.steals[i])
		}
		served += shardServed
		imbalance = max(imbalance, ratio(most, shardServed/float64(w.replicas)))
		if sh == 0 {
			res.set("c3.slow_replica_share", ratio(float64(after.served[0]-before.served[0]), shardServed), int(shardServed))
		}
	}
	res.set("c3.replica_imbalance", imbalance, int(served))
	res.set("netstore.sched.steals_per_kkey", 1000*ratio(steals, served), int(served))
	res.set("netstore.sched.expired_drops", float64(after.expiredDrops-before.expiredDrops), 1)
	cpuNs := float64(after.userNs - before.userNs + after.sysNs - before.sysNs)
	res.set("netstore.cluster.allocs_per_op", ratio(float64(after.mallocs-before.mallocs), float64(ops)), ops)
	res.set("netstore.cluster.bytes_per_op", ratio(float64(after.allocBytes-before.allocBytes), float64(ops)), ops)
	res.set("netstore.cluster.cpu_us_per_op", ratio(cpuNs/1e3, float64(ops)), ops)
	res.set("netstore.cluster.sys_cpu_frac", ratio(float64(after.sysNs-before.sysNs), cpuNs), ops)
	res.set("netstore.cluster.gc_pause_ms", float64(after.gcPauseNs-before.gcPauseNs)/1e6, 1)
	fired := float64(after.hedgeFired - before.hedgeFired)
	res.set("netstore.hedge.fired_per_kop", 1000*ratio(fired, float64(win.reads)), win.reads)
	res.set("netstore.hedge.won_frac", ratio(float64(after.hedgeWon-before.hedgeWon), fired), int(fired))
	res.set("netstore.hedge.wasted_frac", ratio(float64(after.hedgeWasted-before.hedgeWasted), fired), int(fired))
	hits, misses := float64(after.cacheHits-before.cacheHits), float64(after.cacheMiss-before.cacheMiss)
	res.set("netstore.cache.hit_frac", ratio(hits, hits+misses), int(hits+misses))
	res.set("netstore.cache.evictions_per_kop", 1000*ratio(float64(after.cacheEvict-before.cacheEvict), float64(ops)), ops)
	res.set("netstore.cache.invalidations_per_kop", 1000*ratio(float64(after.cacheInv-before.cacheInv), float64(ops)), ops)
	if w.durable {
		appends, fsyncs := float64(after.walAppends-before.walAppends), float64(after.walFsyncs-before.walFsyncs)
		res.set("kv.wal.group_commit_batch", ratio(appends, fsyncs), int(fsyncs))
		res.set("kv.wal.fsyncs_per_s", ratio(fsyncs, winS), int(fsyncs))
		res.set("kv.wal.bytes_per_user_byte", ratio(float64(after.walBytes-before.walBytes), float64(win.setBytes*w.replicas)), int(appends))
	}

	// Probe connections and the queue sampler.
	var waitUs, serviceUs, wireUs []float64
	for _, ps := range tr.probes {
		for i := range ps {
			waitUs = append(waitUs, float64(ps[i].wait)/1e3)
			serviceUs = append(serviceUs, float64(ps[i].service)/1e3)
			wireUs = append(wireUs, float64(ps[i].wireKernel())/1e3)
		}
	}
	res.set("netstore.sched.wait_p50_us", quantile(waitUs, 0.5), len(waitUs))
	res.set("netstore.sched.wait_p99_us", quantile(waitUs, 0.99), len(waitUs))
	res.set("netstore.server.service_p50_us", quantile(serviceUs, 0.5), len(serviceUs))
	res.set("netstore.server.wire_kernel_us", quantile(wireUs, 0.5), len(wireUs))
	qlens := make([]float64, len(tr.qlens))
	for i, q := range tr.qlens {
		qlens[i] = float64(q)
	}
	res.set("netstore.sched.queue_len_mean", mean(qlens), len(qlens))
	res.set("netstore.sched.queue_len_p99", quantile(qlens, 0.99), len(qlens))

	// Isolated layer calls on a sample of the window's own read ops,
	// run now that the cluster is idle. The reads are picked by due time,
	// which an open loop's schedule fixes, so one seed samples the same
	// ops on every run and wire.codec.bytes_per_key repeats exactly.
	var reads []*loadgen.Op
	for i := range recs {
		if recs[i].due >= traceFrom && recs[i].op.Kind == loadgen.OpGet {
			reads = append(reads, recs[i].op)
		}
	}
	if len(reads) == 0 {
		return nil
	}
	stride := min(100, max(1, len(reads)/300))
	var sample []*loadgen.Op
	for i := 0; i < len(reads) && len(sample) < 2000; i += stride {
		sample = append(sample, reads[i])
	}
	lp := newLayerProber(tc, tr.keys, tr.start, log)
	for _, op := range sample {
		lp.probe(op, true)
	}
	for metric, step := range map[string]string{
		"cluster.shard_of_key_ns":           lpShardOfKey,
		"core.prepare_ns_per_key":           lpPrepare,
		"c3.best_ns":                        lpC3,
		"wire.codec.encode_req_ns_per_key":  lpEncodeReq,
		"wire.codec.decode_req_ns_per_key":  lpDecodeReq,
		"kv.store.get_ns":                   lpKVGet,
		"wire.codec.encode_resp_ns_per_key": lpEncodeResp,
		"wire.codec.decode_resp_ns_per_key": lpDecodeResp,
	} {
		res.set(metric, quantile(lp.stepNs[step], 0.5), len(lp.stepNs[step]))
	}
	res.set("wire.codec.bytes_per_key", ratio(float64(lp.wireBytes), float64(lp.wireKeys)), lp.wireKeys)
	res.set("wire.codec.allocs_per_msg", lp.codecAllocs(sample), len(sample))
	res.set("kv.store.set_ns", lp.kvProbe(sample), len(sample))
	sendNs, perWrite, err := lp.connWriterProbe(sample, 2*cfg.handles)
	if err != nil {
		return err
	}
	res.set("wire.connwriter.send_ns", sendNs, 1)
	res.set("wire.connwriter.frames_per_write", perWrite, 1)
	if w.durable {
		us, err := lp.walProbe(sample)
		if err != nil {
			return err
		}
		res.set("kv.wal.append_sync_us", us, 100)
	}

	// The closure row: one caller, 8-key tasks, same cluster, against
	// the summed isolated layer costs of the same tasks. What the sum
	// does not explain is syscalls, goroutine hand-offs and any service
	// cost the workload injects.
	var tasks []*loadgen.Op
	for _, op := range reads {
		if len(op.Keys) >= 8 && len(tasks) < 64 {
			t := *op
			t.Keys = op.Keys[:8]
			tasks = append(tasks, &t)
		}
	}
	if len(tasks) == 0 {
		tasks = sample[:1]
	}
	unloaded, layers, err := lp.unloadedMultiget(ctx, tasks)
	if err != nil {
		return err
	}
	res.set("netstore.cluster.unloaded_multiget_us", unloaded, len(tasks))
	res.set("netstore.cluster.layers_sum_us", layers, len(tasks))
	res.set("netstore.cluster.unexplained_frac", ratio(unloaded-layers, unloaded), len(tasks))
	return nil
}

// killResult is the outcome of a durable workload's crash check.
type killResult struct {
	checked, lost int
	stats         kv.ReplayStats
	replayMs      float64
}

// killCheck hard-kills one replica (no flush, no final snapshot),
// restarts it from its data directory alone and verifies that it
// serves every key of its shard at no less than the highest version
// any handle saw acknowledged. Every write was WriteAll against live
// replicas, so an acknowledged version the restarted replica lacks is
// a lost write. Kill keeps the operating system's page cache: the
// check proves the WAL was written and replays, not that it reached
// the device.
func (tc *testCluster) killCheck(ctx context.Context, keys []string) (killResult, error) {
	const victim = 1 // shard 0, replica 1
	var res killResult
	floors := map[string]uint64{}
	var shardKeys []string
	for _, k := range keys {
		if tc.topo.ShardOfKey(k) != victim/tc.w.replicas {
			continue
		}
		shardKeys = append(shardKeys, k)
		for _, h := range tc.handles {
			if v, ok := h.WrittenVersion(k); ok && v > floors[k] {
				floors[k] = v
			}
		}
	}
	tc.closeHandles()
	tc.servers[victim].Kill()
	t0 := time.Now()
	stats, err := tc.startServer(victim)
	if err != nil {
		return res, fmt.Errorf("restart after kill: %w", err)
	}
	res.stats, res.replayMs = stats, millis(time.Since(t0).Nanoseconds())
	vers, found, err := netstore.ScanVersions(ctx, tc.addrs[victim], victim/tc.w.replicas, shardKeys, 10*time.Second)
	if err != nil {
		return res, fmt.Errorf("scan of the restarted replica: %w", err)
	}
	for i, k := range shardKeys {
		res.checked++
		if !found[i] || vers[i] < floors[k] {
			res.lost++
			if res.lost <= 5 {
				fmt.Fprintf(os.Stderr, "bench: %s: %s acknowledged at v%d, restarted replica serves v%d (found=%v)\n", tc.w.name, k, floors[k], vers[i], found[i])
			}
		}
	}
	return res, nil
}
