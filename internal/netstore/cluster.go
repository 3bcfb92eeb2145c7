package netstore

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/core"
	"github.com/brb-repro/brb/internal/wire"
)

// ClusterOptions configure a sharded, replica-aware cluster client.
type ClusterOptions struct {
	// Topology is the epoch-versioned cluster layout: keys
	// consistent-hash to shard groups, each served by a fixed set of
	// replica servers, with a monotonic epoch that advances on
	// rebalances. Required. The client treats it as a starting point: it
	// refreshes to newer epochs from the servers whenever one rejects a
	// key as not-owned.
	Topology *cluster.ShardTopology
	// Assigner is the priority-assignment algorithm applied across the
	// whole multiget fan-out (default EqualMax).
	Assigner core.Assigner
	// CostModel forecasts per-key service cost from the value size
	// (default: 1 µs + 1 ns/byte). Only relative order matters: the
	// client rescales forecasts to the service times servers report
	// before they go on the wire (forecastScale).
	CostModel core.CostModel
	// Client identifies this client (telemetry and C3 pressure
	// extrapolation).
	Client int
	// Clients is the cluster-wide client count n for C3's pressure
	// extrapolation (default 1).
	Clients int
	// ServerWorkers is the per-server worker count m for C3's
	// concurrency compensation (default 4, the server default).
	ServerWorkers int
	// ProbeInterval is how often the revival prober pings down-marked
	// replicas (default 500ms; negative disables revival, restoring the
	// old fail-once-stay-down behavior).
	ProbeInterval time.Duration
	// CacheSize, when positive, enables the client's bounded versioned
	// hot-key cache with that many entries: recently read keys are
	// served locally, validated by write versions, and invalidated on
	// local writes/deletes, wire-version proof of staleness, and
	// topology epoch changes (see cache.go). 0 (default) disables it.
	CacheSize int

	// hedgeTimer overrides the hedge-trigger timer (test hook): it
	// returns a channel that fires after d plus an idempotent stop
	// function. nil uses time.NewTimer.
	hedgeTimer func(d time.Duration) (<-chan time.Time, func())
	// requestTimeout overrides DefaultRequestTimeout (test hook).
	requestTimeout time.Duration
}

// Fixed client settings.
const (
	// defaultSize is the value size forecast for a key the client has
	// not read or written yet.
	defaultSize int64 = 1024
	// clientDialTimeout bounds connection establishment, a topology poll
	// and each background exchange: a hint-replay write, a scan page, a
	// replay window.
	clientDialTimeout = 5 * time.Second
	// maxHintsPerReplica bounds the hinted-handoff buffer kept for each
	// down replica (latest write per key). Writes beyond the bound are
	// dropped from the buffer, never failed, and mark it overflowed: the
	// replica is caught up from its siblings on revival. Each drop counts
	// in ClusterStats.HintOverflows.
	maxHintsPerReplica = 4096
)

func (o ClusterOptions) withDefaults() ClusterOptions {
	if o.Assigner == nil {
		o.Assigner = core.EqualMax{}
	}
	if o.CostModel == (core.CostModel{}) {
		o.CostModel = core.CostModel{BaseNanos: 1000, PerBytePico: 1000}
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.ServerWorkers <= 0 {
		o.ServerWorkers = 4
	}
	if o.ProbeInterval == 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.requestTimeout <= 0 {
		o.requestTimeout = DefaultRequestTimeout
	}
	return o
}

// maxEpochHops bounds how many topology refreshes a single operation
// will chase: during a rebalance each hop crosses one epoch, and
// rebalances do not stack faster than a client can follow, so running
// out means the cluster and client genuinely disagree.
const maxEpochHops = 4

// serverSlot is one server's client-side state: its one live connection
// (nil while down; swapped atomically by the revival prober), the down
// mark, and the hinted-handoff buffer. Slots are keyed by stable server
// ID and SHARED between topology states, so hints and down-marks
// survive a topology refresh; a slot whose server a topology retires
// stays too, until Close, so its hints stay reachable.
type serverSlot struct {
	id   int
	addr string
	conn atomic.Pointer[serverConn]
	down atomic.Bool
	// hints buffers writes this server missed while down, for replay
	// when the prober revives it.
	hints hintBuffer
}

// closeConn swaps the connection out and closes it.
func (s *serverSlot) closeConn() {
	if sc := s.conn.Swap(nil); sc != nil {
		sc.close()
	}
}

// retire closes the connection of a server the topology dropped and
// marks it down, so that a topology naming the server again has the
// prober redial it.
func (s *serverSlot) retire() {
	s.closeConn()
	s.down.Store(true)
}

// topoState is one epoch's immutable view of the cluster: the topology
// plus per-server slots and per-shard scorers. Operations load the
// current state once and work against it; a concurrent refresh installs
// a new state without disturbing them (slots are shared by ID).
type topoState struct {
	topo *cluster.ShardTopology
	// slots maps stable server IDs to their client-side state: the
	// topology's servers, and every server an earlier epoch retired.
	slots map[int]*serverSlot
	// scorers[shardID] ranks that shard's replicas from piggybacked
	// feedback; carried over across epochs for surviving shards.
	scorers map[int]*c3.Scorer
}

func (st *topoState) slotOf(shard, replica int) *serverSlot {
	return st.slots[st.topo.Server(shard, replica)]
}

// Cluster is the sharded, replica-aware client of the networked store:
// keys consistent-hash across shard groups, a multiget decomposes into
// one BRB sub-task per shard with task-aware priorities preserved
// end-to-end, each sub-task's keys are placed on the shard's replicas by
// C3 score (one batch per replica that received keys; see place), and
// batches scatter-gather with failover to the next-ranked replica when
// one dies.
//
// Routing is epoch-versioned: the client caches a cluster.ShardTopology
// and servers validate ownership per key against their own. When a
// rebalance moves keys, stale clients see stray rejections (reads) or
// NotOwner (writes), refresh their topology from the servers, and retry
// exactly the misrouted keys under the new epoch — a multiget can span
// epochs mid-flight without failing.
//
// The replica set self-heals: a replica that fails a read or write is
// marked down (never permanently blacklisted), a background prober
// redials it and verifies liveness with a Ping/Pong exchange, and
// writes missed while down are buffered as hints and replayed on
// revival — or, past the buffer's bound, copied from the replica's
// siblings before it serves reads again. See revive.go.
type Cluster struct {
	opts ClusterOptions

	// state is the current topology epoch's view, swapped atomically on
	// refresh. topoMu guards installs (and Close's slot sweep) — held
	// only across in-memory swaps plus the bounded dials of newly joined
	// servers. refreshMu single-flights the slower server poll, so the
	// poll's network I/O never blocks Close or an in-process install.
	state     atomic.Pointer[topoState]
	topoMu    sync.Mutex
	refreshMu sync.Mutex

	// sizes caches learned value sizes for cost forecasting.
	sizes sync.Map // string -> int64
	// scale turns forecasts into the servers' nanoseconds.
	scale forecastScale

	// written records the version this client last wrote per key: the
	// hot-key cache's floor and WrittenVersion. Like sizes, it grows one
	// entry per distinct key this client ever writes — acceptable for the
	// cache-tier keyspaces the client targets; a churning-keyspace writer
	// would want an eviction bound here.
	written sync.Map // string -> uint64

	// versions stamps writes; servers apply them last-writer-wins.
	versions versionClock

	// cache is the bounded versioned hot-key cache (nil unless
	// ClusterOptions.CacheSize enables it; see cache.go).
	cache *hotKeyCache

	taskSeq atomic.Uint64

	// rootCtx scopes every background goroutine this client owns — the
	// revival prober, hint replay, catch-up — and is cancelled by Close,
	// so background I/O observes shutdown the same way foreground
	// operations observe their callers' contexts.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// Revival machinery (revive.go).
	probeWG sync.WaitGroup
	// The ClusterStats counts, each bumped where its event happens (the
	// cache keeps its own).
	expired, cancelled, subtasks, batches atomic.Uint64
	strayRetries, refreshes               atomic.Uint64
	hintOverflows, revivals               atomic.Uint64
	hedgesFired, hedgesWon, hedgesWasted  atomic.Uint64
	// epochLag is set when a batch response reveals a server running a
	// newer epoch than ours without rejecting anything; the prober's
	// next tick refreshes proactively instead of waiting for a stray.
	epochLag atomic.Bool
	closed   atomic.Bool
}

// ClusterStats are one Cluster client's counts since DialCluster.
type ClusterStats struct {
	// Expired and Cancelled count public-API operations that ended in
	// deadline expiry or caller cancellation.
	Expired, Cancelled uint64
	// MultigetSubtasks counts the per-shard sub-tasks multigets
	// decomposed into, MultigetBatches the BatchReq messages sent for
	// them (hedges, failovers and stray retries included): batches ÷
	// subtasks is the message amplification of task-wide replica
	// selection.
	MultigetSubtasks, MultigetBatches uint64
	// StrayRetries counts read keys re-sent after a server refused them
	// as not owned; TopologyRefreshes the newer topologies installed.
	StrayRetries, TopologyRefreshes uint64
	// HintOverflows counts writes dropped from a full hinted-handoff
	// buffer; Revivals the down replicas the prober brought back.
	HintOverflows, Revivals uint64
	// HedgesFired counts hedge attempts issued. Each is then counted
	// once more: as HedgesWon (it answered first) or HedgesWasted (the
	// primary answered first, or the hedge died, or the batch's deadline
	// ended the race).
	HedgesFired, HedgesWon, HedgesWasted uint64
	// The hot-key cache's counts, zero when the cache is off: keys
	// served from it and looked up in vain, entries filled, entries
	// dropped for coherence (local writes, floor violations, wire-version
	// proof, epoch purges), entries the capacity bound evicted, and
	// fills the admission filter refused.
	CacheHits, CacheMisses, CacheFills               uint64
	CacheInvalidations, CacheEvictions, CacheRejects uint64
}

// Stats returns a snapshot of this client's counts.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{
		Expired:           c.expired.Load(),
		Cancelled:         c.cancelled.Load(),
		MultigetSubtasks:  c.subtasks.Load(),
		MultigetBatches:   c.batches.Load(),
		StrayRetries:      c.strayRetries.Load(),
		TopologyRefreshes: c.refreshes.Load(),
		HintOverflows:     c.hintOverflows.Load(),
		Revivals:          c.revivals.Load(),
		HedgesFired:       c.hedgesFired.Load(),
		HedgesWon:         c.hedgesWon.Load(),
		HedgesWasted:      c.hedgesWasted.Load(),
	}
	if hc := c.cache; hc != nil {
		st.CacheHits, st.CacheMisses, st.CacheFills = hc.hits.Load(), hc.misses.Load(), hc.fills.Load()
		st.CacheInvalidations, st.CacheEvictions, st.CacheRejects = hc.invals.Load(), hc.evicts.Load(), hc.rejects.Load()
	}
	return st
}

// ErrNoReplica is returned when every replica of a shard is down.
var ErrNoReplica = errors.New("netstore: no live replica for shard")

// ErrTopologySkew is returned when an operation ran out of epoch hops:
// servers kept rejecting keys as not-owned faster than the client could
// refresh — a sign the cluster's topology push never completed.
var ErrTopologySkew = errors.New("netstore: topology skew not resolved after refresh")

// DialCluster connects to every server of the cluster. addrs, when
// non-nil, binds dial addresses to the topology's servers in dense
// order (replica r of shard s at index s·R+r — the order `cmd/brb-server
// -shard s -group-listen …` launches them); a nil addrs requires the
// topology to carry addresses already (cluster.ShardTopology.WithAddrs
// or a fetched topology).
func DialCluster(addrs []string, opts ClusterOptions) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.Topology == nil {
		return nil, errors.New("netstore: ClusterOptions.Topology is required")
	}
	topo := opts.Topology
	if len(addrs) != 0 {
		bound, err := topo.WithAddrs(addrs)
		if err != nil {
			return nil, fmt.Errorf("netstore: %v (%d shards × %d replicas)", err, topo.Shards(), topo.Replicas())
		}
		topo = bound
	}
	for _, sid := range topo.Servers() {
		if topo.Addr(sid) == "" {
			return nil, fmt.Errorf("netstore: topology has no address for server %d (pass addrs or use WithAddrs)", sid)
		}
	}
	c := &Cluster{opts: opts}
	if opts.CacheSize > 0 {
		c.cache = newHotKeyCache(opts.CacheSize)
	}
	//brb:allow ctxfirst the cluster root context is cancelled by Close, not inherited from a caller
	c.rootCtx, c.rootCancel = context.WithCancel(context.Background())
	st := &topoState{
		topo:    topo,
		slots:   make(map[int]*serverSlot, topo.NumServers()),
		scorers: make(map[int]*c3.Scorer, topo.Shards()),
	}
	for _, sh := range topo.ShardIDs() {
		st.scorers[sh] = c.newScorer(topo.Replicas())
	}
	// Unreachable replicas start marked down rather than failing the
	// dial — the client tolerates dead replicas at connect time the same
	// way it tolerates them mid-run (the prober revives them once they
	// come back) — but every shard needs at least one live replica to be
	// servable.
	var lastErr error
	for _, sid := range topo.Servers() {
		slot := &serverSlot{id: sid, addr: topo.Addr(sid)}
		if err := c.dialSlot(slot); err != nil {
			slot.down.Store(true)
			lastErr = fmt.Errorf("netstore: dial %s: %w", slot.addr, err)
		}
		st.slots[sid] = slot
	}
	c.state.Store(st)
	for _, sh := range topo.ShardIDs() {
		alive := false
		for r := 0; r < topo.Replicas(); r++ {
			if !st.slotOf(sh, r).down.Load() {
				alive = true
				break
			}
		}
		if !alive {
			c.Close()
			return nil, fmt.Errorf("%w %d: %v", ErrNoReplica, sh, lastErr)
		}
	}
	if opts.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// newScorer sizes a shard's scorer for the replica count of the
// topology it will serve under — NOT opts.Topology's: a refresh can
// install a fetched topology whose replication differs from the one
// the client was configured with (a misconfigured -replication flag),
// and a scorer ranging over the wrong replica count walks off the
// replica arrays.
func (c *Cluster) newScorer(replicas int) *c3.Scorer {
	return c3.NewScorer(replicas, c3.ScorerOptions{
		Clients:     float64(c.opts.Clients),
		Concurrency: float64(c.opts.ServerWorkers),
	})
}

// dialSlot dials slot's server and publishes the connection.
func (c *Cluster) dialSlot(slot *serverSlot) error {
	sc, err := dialServer(slot.addr)
	if err != nil {
		return err
	}
	slot.conn.Store(sc)
	return nil
}

// markDown records a transport failure at a server: the connection the
// caller observed failing is torn down and the server skipped until the
// prober revives it. Never a permanent blacklist — recording the
// failure is exactly what arms the probe loop. The compare-and-swap on
// the connection identity makes stragglers harmless: an operation that
// started on the pre-crash connection and fails after the prober has
// already swapped in a fresh one must not tear the revived replica back
// down.
func (c *Cluster) markDown(slot *serverSlot, failed *serverConn) {
	if slot.conn.CompareAndSwap(failed, nil) {
		slot.down.Store(true)
		failed.close()
	}
}

// Close tears down all connections and stops the prober.
func (c *Cluster) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	// Cancelling the root context stops the prober and unblocks every
	// background wait (hint replay, catch-up) at its next select.
	c.rootCancel()
	c.probeWG.Wait()
	// The slot sweep runs under topoMu so it cannot race an in-flight
	// installLocked: an install finishing before us publishes its state
	// (whose slots we sweep), and one arriving after sees closed and
	// no-ops — either way no freshly dialed connection escapes.
	c.topoMu.Lock()
	st := c.state.Load()
	for _, slot := range st.slots {
		slot.closeConn()
	}
	c.topoMu.Unlock()
}

// refreshTopology polls the cluster for a topology newer than prev's
// and installs it, returning the freshest state (prev's if nothing
// newer surfaced). Single-flight under refreshMu — concurrent
// stray-hit operations share one poll — while topoMu is taken only for
// the final install, so the poll's per-server timeouts never stall
// Close or InstallTopology. The wait is ctx-bounded: a deadline-bound
// operation abandons the poll at its deadline and proceeds with the
// best state currently installed (the poll goroutines park their late
// answers in the buffered channel and exit on their own), so a refresh
// can never hold a caller past its budget.
func (c *Cluster) refreshTopology(ctx context.Context, prev *topoState) *topoState {
	if st := c.state.Load(); st.topo.Epoch() > prev.topo.Epoch() {
		return st
	}
	if ctx.Err() != nil {
		return c.state.Load()
	}
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	st := c.state.Load()
	if st.topo.Epoch() > prev.topo.Epoch() {
		// Someone refreshed while we waited for the lock.
		return st
	}
	// Poll every live server concurrently: polled serially, one wedged
	// server (TCP alive, process stalled) would cost a full topoGet
	// timeout before the poll even reached a server that knows the
	// newer epoch, stalling every stray-hit operation behind refreshMu.
	// In parallel the refresh completes as soon as the first newer
	// answer lands; stragglers time out into the buffered channel and
	// their goroutines exit on their own.
	var live []*serverConn
	for _, sid := range st.topo.Servers() {
		slot := st.slots[sid]
		if sc := slot.conn.Load(); sc != nil && !slot.down.Load() {
			live = append(live, sc)
		}
	}
	results := make(chan *cluster.ShardTopology, len(live))
	for _, sc := range live {
		go func(sc *serverConn) {
			ctx, cancel := c.repairCtx()
			tp, err := sc.topoGet(ctx)
			cancel()
			if err != nil {
				results <- nil
				return
			}
			nt, err := topoFromWire(tp)
			if err != nil {
				results <- nil
				return
			}
			results <- nt
		}(sc)
	}
	var best *cluster.ShardTopology
	for range live {
		var nt *cluster.ShardTopology
		select {
		case nt = <-results:
		case <-ctx.Done():
			// The caller's budget ran out mid-poll: hand back whatever is
			// installed now; the straggling pollers drain into the
			// buffered channel and exit unobserved.
			return c.state.Load()
		}
		if nt == nil {
			continue
		}
		if best == nil || nt.Epoch() > best.Epoch() {
			best = nt
		}
		if best.Epoch() > st.topo.Epoch() {
			// One newer answer is enough; rebalances are serialized, so
			// the first newer epoch seen is the newest there is.
			break
		}
	}
	if best == nil || best.Epoch() < st.topo.Epoch() {
		return st
	}
	// A same-epoch topology that differs from ours is adopted too: this
	// poll only runs on rejection evidence, and a rejecting server that
	// is not AHEAD of us must be on another lineage entirely — the
	// client was configured with a layout the cluster never had, and
	// the servers are authoritative.
	if best.Epoch() == st.topo.Epoch() && best.Equal(st.topo) {
		return st
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	// Re-validate against the state as it stands now that the poll is
	// done (an InstallTopology may have landed meanwhile).
	cur := c.state.Load()
	if best.Epoch() < cur.topo.Epoch() ||
		(best.Epoch() == cur.topo.Epoch() && best.Equal(cur.topo)) {
		return cur
	}
	return c.installLocked(cur, best)
}

// InstallTopology hands the client a newer topology directly (the
// in-process path used by orchestration tooling; remote clients learn
// through refreshTopology). Older or equal epochs are ignored.
func (c *Cluster) InstallTopology(nt *cluster.ShardTopology) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	st := c.state.Load()
	if nt == nil || nt.Epoch() <= st.topo.Epoch() {
		return
	}
	c.installLocked(st, nt)
}

// installLocked (topoMu held) builds the new epoch's state: slots are
// reused by server ID so connections, down-marks and buffered hints
// survive; servers joining the topology are dialed; servers leaving it
// keep their slots — whose hints the prober forwards to the keys' new
// owners — but lose their connections after the swap.
func (c *Cluster) installLocked(st *topoState, nt *cluster.ShardTopology) *topoState {
	if c.closed.Load() {
		// Close is (or has been) sweeping connections under this same
		// lock; dialing new ones now would leak them.
		return st
	}
	ns := &topoState{
		topo:    nt,
		slots:   maps.Clone(st.slots),
		scorers: make(map[int]*c3.Scorer, nt.Shards()),
	}
	for _, sid := range nt.Servers() {
		if ns.slots[sid] != nil {
			continue
		}
		slot := &serverSlot{id: sid, addr: nt.Addr(sid)}
		if err := c.dialSlot(slot); err != nil {
			// Down from birth; the prober takes it from here.
			slot.down.Store(true)
		}
		ns.slots[sid] = slot
	}
	for _, sh := range nt.ShardIDs() {
		if sc := st.scorers[sh]; sc != nil && sc.Replicas() == nt.Replicas() {
			ns.scorers[sh] = sc
		} else {
			ns.scorers[sh] = c.newScorer(nt.Replicas())
		}
	}
	c.state.Store(ns)
	if c.cache != nil {
		// Ownership moved with the epoch: every cached entry's
		// provenance is void, so the cache restarts empty.
		c.cache.purge()
	}
	// In-flight operations on the old state fail over or error like any
	// transport loss.
	for sid, slot := range ns.slots {
		if nt.ShardOfServer(sid) < 0 {
			slot.retire()
		}
	}
	c.refreshes.Add(1)
	return ns
}

// Set writes a key to every replica of its shard in parallel, stamped
// with one version so replicas are comparable. A replica that is down or
// fails the write gets the write buffered as a hint for replay on
// revival (and is marked down, arming the prober — not permanently
// blacklisted). A NotOwner rejection (the shard moved) triggers a
// topology refresh and a re-route of the same versioned write. Set
// returns an error only when no replica accepted the write;
// short-of-full-replication writes heal via hinted handoff (or, past its
// bound, a catch-up from the siblings) once the missing replicas revive.
//
// The wait is bounded by ctx, opts.Timeout, and DefaultRequestTimeout
// (earliest wins), and covers every live replica's ack. A replica whose
// wait the deadline cut short is NOT marked down — the caller gave up,
// the replica may be fine — but the write is hint-buffered for it, so
// convergence still heals the gap if a sibling acked.
func (c *Cluster) Set(ctx context.Context, key string, value []byte, opts WriteOptions) error {
	return c.write(ctx, key, value, false, opts)
}

// Delete removes a key from every replica of its shard (versioned
// tombstones, so replayed older writes cannot resurrect it) and drops
// the key's learned size, so later cost forecasts fall back to
// defaultSize instead of the stale size of a value that no longer
// exists. Like Set, it errors only when no replica accepted it, and its
// deadline semantics match Set's.
func (c *Cluster) Delete(ctx context.Context, key string, opts WriteOptions) error {
	return c.write(ctx, key, nil, true, opts)
}

// writeVerdict is one replica's outcome within a write fan-out.
type writeVerdict struct {
	err    error
	hinted *serverSlot // non-nil when the attempt buffered a hint
}

func (c *Cluster) write(ctx context.Context, key string, value []byte, del bool, opts WriteOptions) (err error) {
	defer func() { c.countCtxErr(err) }()
	ctx, cancel := requestContext(ctx, opts.Timeout, c.opts.requestTimeout)
	defer cancel()
	ver := c.versions.next()
	st := c.state.Load()
	for hop := 0; hop < maxEpochHops; hop++ {
		shard := st.topo.ShardOfKey(key)
		rt := writeRoute{shard: shard, epoch: st.topo.Epoch()}
		reps := st.topo.Replicas()
		results := make(chan writeVerdict, reps)
		inflight := 0
		var hinted []*serverSlot // slots holding this attempt's hints
		for r := 0; r < reps; r++ {
			slot := st.slotOf(shard, r)
			sc := slot.conn.Load()
			if slot.down.Load() || sc == nil {
				c.addHint(slot, key, value, ver, del)
				hinted = append(hinted, slot)
				continue
			}
			inflight++
			go func(slot *serverSlot, sc *serverConn) {
				werr := sc.write(ctx, key, value, ver, del, rt)
				v := writeVerdict{err: werr}
				switch {
				case werr == nil:
				case errors.As(werr, new(*NotOwnerError)):
					// The server's (newer) topology places the key
					// elsewhere: no hint — this replica will never own it.
				case ctx.Err() != nil:
					// The caller's deadline/cancellation cut the wait
					// short; the replica may be healthy and may even have
					// applied the write. Hint it (versioned, idempotent —
					// a duplicate replay is a no-op) but do not mark the
					// replica down for the caller's impatience.
					c.addHint(slot, key, value, ver, del)
					v.hinted = slot
				default:
					// Hint before marking down so a racing revival can only
					// replay the hint, never miss it.
					c.addHint(slot, key, value, ver, del)
					v.hinted = slot
					c.markDown(slot, sc)
				}
				results <- v
			}(slot, sc)
		}
		wrote, notOwner := 0, 0
		for done := 0; done < inflight; done++ {
			v := <-results
			switch {
			case v.err == nil:
				wrote++
			case errors.As(v.err, new(*NotOwnerError)):
				notOwner++
			default:
				if v.hinted != nil {
					hinted = append(hinted, v.hinted)
				}
			}
		}
		if notOwner > 0 {
			// Even when other replicas acked (the write succeeds below),
			// the rejection proves a newer epoch exists: arm the prober's
			// proactive refresh so later writes stop bouncing off
			// already-pushed donors.
			c.epochLag.Store(true)
		}
		if wrote > 0 {
			// The floor first, the invalidation second: a concurrent
			// cache fill racing this write either lands before the
			// invalidation (dropped by it) or after (dropped at serve
			// time by the raised floor) — there is no interleaving that
			// leaves a pre-write value servable once this ack returns.
			c.raiseWritten(key, ver)
			if c.cache != nil {
				c.cache.invalidate(key)
			}
			if del {
				c.sizes.Delete(key)
			} else {
				learnSize(&c.sizes, key, int64(len(value)))
			}
			if notOwner > 0 {
				// Mixed verdict: stale donors acked (the write succeeds),
				// already-pushed replicas rejected. The rejecting replicas
				// will never hold this write, and if the acking donors die
				// before the migration's catch-up scan, theirs could be
				// the only copies — top up redundancy by buffering the
				// same versioned write for the key's owners under the
				// freshest topology; the prober's flush delivers it,
				// idempotently.
				if nst := c.refreshTopology(ctx, st); nst != st {
					for _, sid := range nst.topo.ReplicaServers(nst.topo.ShardOfKey(key)) {
						c.addHint(nst.slots[sid], key, value, ver, del)
					}
				}
			}
			return nil
		}
		// No replica accepted: whatever this attempt hinted must not
		// materialize later without an acknowledgment backing it.
		for _, slot := range hinted {
			if slot != nil {
				c.removeHint(slot, key, ver)
			}
		}
		if ctx.Err() != nil {
			// The deadline (or the caller) ended the write before any
			// replica could ack: surface the cause, not ErrNoReplica.
			return ctxErr(ctx, fmt.Sprintf("write %q", key))
		}
		if notOwner > 0 || c.state.Load() != st {
			// The shard moved under us — either a replica said so
			// (NotOwner) or a concurrent refresh replaced the state we
			// fanned out against (closing a drained shard's connections
			// mid-write). Refresh and re-route the same versioned write.
			st = c.refreshTopology(ctx, st)
			continue
		}
		return fmt.Errorf("%w %d (write %q)", ErrNoReplica, shard, key)
	}
	return fmt.Errorf("%w (write %q)", ErrTopologySkew, key)
}

// raiseWritten raises the client's written-version floor for a key,
// never lowering it: two concurrent Sets acking out of order must leave
// the floor at the NEWER version, or the hot-key cache could serve the
// older write after the newer one was acknowledged (the floor is what
// hotKeyCache.serve checks).
func (c *Cluster) raiseWritten(key string, ver uint64) {
	for {
		cur, ok := c.written.Load(key)
		if ok {
			if cur.(uint64) >= ver {
				return
			}
			if c.written.CompareAndSwap(key, cur, ver) {
				return
			}
		} else if _, loaded := c.written.LoadOrStore(key, ver); !loaded {
			return
		}
	}
}

// WrittenVersion returns the highest version this client has had
// acknowledged for key (false if it never wrote it). Crash-recovery
// harnesses use it as the ground truth for "acked": a restarted replica
// must serve every key at at least this version.
func (c *Cluster) WrittenVersion(key string) (uint64, bool) {
	v, ok := c.written.Load(key)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// Get reads a single key through the batched pipeline (found=false for
// missing keys, never an error).
func (c *Cluster) Get(ctx context.Context, key string, opts ReadOptions) ([]byte, bool, error) {
	res, err := c.Multiget(ctx, []string{key}, opts)
	if err != nil {
		return nil, false, err
	}
	return res.Values[0], res.Found[0], nil
}

// Multiget performs one batched read across the cluster: the full BRB
// pipeline (forecast → decompose per shard → prioritize → task-wide C3
// replica selection → scatter-gather of one batch per shard replica
// chosen), with failover to the next-ranked replica on transport errors
// and per-key re-routing across topology epochs when a rebalance moves
// keys mid-flight. On error the partial TaskResult is still returned —
// shards that answered have their Values/Found filled — with all
// per-shard errors joined (errors.Is(err, ErrNoReplica) matches a shard
// whose whole replica set was down).
//
// The wait is bounded by ctx, opts.Timeout, and DefaultRequestTimeout
// (earliest wins): against a stalled replica the call returns within
// the deadline with the in-deadline shards' partial results and an
// error wrapping context.DeadlineExceeded. The remaining budget rides
// each sub-batch on the wire, so servers shed keys that outlive it in
// their queues instead of servicing them (per-key Expired bits,
// surfaced here as the same deadline error).
func (c *Cluster) Multiget(ctx context.Context, keys []string, opts ReadOptions) (res *TaskResult, err error) {
	if len(keys) == 0 {
		return &TaskResult{}, nil
	}
	if err := opts.Hedge.Validate(); err != nil {
		return &TaskResult{}, err
	}
	defer func() { c.countCtxErr(err) }()
	ctx, cancel := requestContext(ctx, opts.Timeout, c.opts.requestTimeout)
	defer cancel()
	start := time.Now()
	st := c.state.Load()

	res = &TaskResult{
		Values: make([][]byte, len(keys)),
		Found:  make([]bool, len(keys)),
	}
	// Hot-key cache first: served keys never enter the task at all, and
	// a fully cached multiget touches no socket.
	pending := len(keys)
	if c.cache != nil {
		pending -= c.cache.serve(keys, c.writtenFloor, res.Values, res.Found)
		if pending == 0 {
			res.Latency = time.Since(start)
			return res, nil
		}
	}

	// Build the task over the uncached keys with forecasted costs;
	// Group carries the shard so core.Decompose yields exactly one
	// sub-task per shard touched, and each request's ID remains the
	// key's slot in the ORIGINAL list so results land in place. The
	// per-key requests are one slab, not one allocation each.
	task := &core.Task{ID: c.taskSeq.Add(1), Client: c.opts.Client}
	reqs := make([]core.Request, 0, pending)
	task.Requests = make([]*core.Request, 0, pending)
	for i, k := range keys {
		if res.Found[i] {
			continue // served from the cache above
		}
		size := defaultSize
		if v, ok := c.sizes.Load(k); ok {
			size = v.(int64)
		}
		reqs = append(reqs, core.Request{
			ID:      uint64(i),
			TaskID:  task.ID,
			Client:  c.opts.Client,
			Group:   cluster.GroupID(st.topo.ShardOfKey(k)),
			Size:    size,
			EstCost: c.opts.CostModel.Estimate(size),
		})
		task.Requests = append(task.Requests, &reqs[len(reqs)-1])
	}
	subs := core.Prepare(task, c.opts.Assigner)
	res.Bottleneck = core.Bottleneck(subs)
	// One slab each for the keys, priorities and result slots of the whole
	// task, sub-task after sub-task; batches and pieces are windows onto
	// them.
	ks := make([]string, 0, pending)
	ps := make([]int64, 0, pending)
	ix := make([]int, 0, pending)
	pieces := make([]piece, 0, len(subs))
	scale := c.scale.factor()
	for i := range subs {
		sub := &subs[i]
		lo := len(ks)
		for _, r := range sub.Requests {
			ks = append(ks, keys[r.ID])
			ps = append(ps, int64(float64(r.Priority)*scale)+opts.PriorityBias)
			ix = append(ix, int(r.ID))
		}
		b := shardBatch{shard: int(sub.Group), taskID: task.ID, cost: sub.Cost, keys: ks[lo:], prios: ps[lo:], idx: ix[lo:]}
		pieces = c.place(st, b, pieces)
	}
	c.subtasks.Add(uint64(len(subs)))
	// Every piece but the last gets a goroutine and reports on errCh; the
	// last runs here, so a multiget that is one message (Get, a
	// single-shard read) starts none.
	last := len(pieces) - 1
	var errCh chan error
	if last > 0 {
		errCh = make(chan error, last)
	}
	for _, p := range pieces[:last] {
		go func() {
			errCh <- c.fetchBatch(ctx, st, p.shardBatch, p.rep, res, 0, opts)
		}()
	}
	var errs []error
	if ferr := c.fetchBatch(ctx, st, pieces[last].shardBatch, pieces[last].rep, res, 0, opts); ferr != nil {
		errs = append(errs, ferr)
	}
	for range pieces[:last] {
		if ferr := <-errCh; ferr != nil {
			errs = append(errs, ferr)
		}
	}
	res.Latency = time.Since(start)
	if len(errs) > 0 {
		return res, errors.Join(errs...)
	}
	return res, nil
}

// shardBatch is keys of one shard within a multiget — a whole sub-task
// or the part of it bound for one replica: the keys, their BRB
// priorities, their slots in the original key list, and their forecast
// cost. Stray keys re-bucket into fresh shardBatches under the
// refreshed topology.
type shardBatch struct {
	shard  int
	taskID uint64
	cost   int64
	keys   []string
	prios  []int64
	idx    []int
}

// share is the part of b's cost that k of its keys carry: whatever
// splits a batch — placement, strays, a re-bucket — splits its cost per
// key, so the costs the forecast scale folds in across the parts add
// up to the batch's forecast.
func (b shardBatch) share(k int) int64 {
	return b.cost * int64(k) / int64(len(b.keys))
}

// slice returns keys [lo, hi) of b with their share of its cost.
func (b shardBatch) slice(lo, hi int) shardBatch {
	b.cost = b.share(hi - lo)
	b.keys, b.prios, b.idx = b.keys[lo:hi], b.prios[lo:hi], b.idx[lo:hi]
	return b
}

// piece is one message of a multiget's scatter: the keys of one
// sub-task that placement put on replica rep, already counted
// outstanding in the shard's scorer. rep < 0: the shard has no live
// replica.
type piece struct {
	shardBatch
	rep int
}

// nextReplica picks the replica for one whole batch of n keys — a
// pinned sub-task, a failover, a hedge, a stray re-bucket — and counts
// the keys outstanding there: the best-ranked live replica of the shard
// not yet tried. It returns -1 when no replica is left.
func (c *Cluster) nextReplica(st *topoState, shard, n int, tried []bool) int {
	scorer := st.scorers[shard]
	rep := scorer.Best(func(r int) bool {
		return !(r < len(tried) && tried[r]) && !st.slotOf(shard, r).down.Load()
	})
	if rep >= 0 {
		scorer.OnSend(rep, n)
	}
	return rep
}

// place decides which replica serves each key of sub-task b and appends
// one piece per replica that received keys. Selection is task-wide:
// the scorer places the keys one at a time (c3.Scorer.Spread), so a
// sub-task larger than one replica's idle workers spills onto the
// sibling instead of queueing for several rounds behind itself. The
// sub-task stays one message with one live replica, before the scorer
// has feedback, and whenever the service time a second message would
// save is less than a message costs.
func (c *Cluster) place(st *topoState, b shardBatch, pieces []piece) []piece {
	scorer := st.scorers[b.shard]
	n := len(b.keys)
	live := func(r int) bool { return !st.slotOf(b.shard, r).down.Load() }
	var buf [c3.InlineReplicas]int
	counts := buf[:]
	if r := st.topo.Replicas(); r <= len(buf) {
		counts = counts[:r]
	} else {
		counts = make([]int, r)
	}
	if scorer.Spread(n, live, counts) < 0 {
		return append(pieces, piece{b, -1})
	}
	lo := 0
	for r, k := range counts {
		if k > 0 {
			pieces = append(pieces, piece{b.slice(lo, lo+k), r})
			lo += k
		}
	}
	return pieces
}

// fetchBatch sends one batch of a shard's keys to replica rep, where
// the caller already counted them outstanding (place, nextReplica),
// failing over through the remaining replicas on transport errors.
// Every path out balances the scorer: a counted attempt ends in Observe
// (answered) or OnError (send failure, dead connection, ctx).
//
// Keys the server rejects as strays (a rebalance moved them) are
// re-bucketed under a refreshed topology and retried, up to
// maxEpochHops epochs deep; strays from a server still BEHIND st's epoch
// are re-sent under st instead. Result slots are disjoint across concurrent
// calls, so writes into res need no locking.
//
// The whole failover chain observes ctx: each attempt's wait selects on
// ctx.Done(), a ctx-terminated attempt does not mark the replica down
// (the caller gave up; the replica may be fine), and no further
// failover is attempted once ctx is done.
//
// With opts.Hedge armed, each attempt runs through hedgedBatch: a batch
// outstanding past the policy's trigger fans out to the next-ranked
// replica and the first complete answer wins (hedge.go). The hedged
// replicas share this call's tried set, so the failover loop never
// re-picks a replica a hedge already asked.
func (c *Cluster) fetchBatch(ctx context.Context, st *topoState, b shardBatch, rep int, res *TaskResult, depth int, opts ReadOptions) error {
	// b.shard is always bucketed from st.topo by the caller (Multiget or
	// retryStrays), so the shard exists in st by construction.
	scorer := st.scorers[b.shard]
	n := len(b.keys)
	pol := opts.Hedge.withDefaults()
	tried := make([]bool, st.topo.Replicas())
	// behind: a replica answered strays from an OLDER topology than st's
	// (see the stray handling below); b has shrunk to those strays.
	behind := false
	// expired counts keys shed by answers whose strays went around again.
	expired := 0
	for ; ; rep = c.nextReplica(st, b.shard, n, tried) {
		if rep < 0 && behind {
			// Every sibling has been asked and the lagging replicas are
			// about to install st's epoch: wait a beat, then ask again.
			if !sleepCtx(ctx, strayBeat) {
				return ctxErr(ctx, fmt.Sprintf("shard %d replicas behind epoch %d", b.shard, st.topo.Epoch()))
			}
			clear(tried)
			behind = false
			continue
		}
		if rep < 0 {
			// Every replica of the shard is exhausted under THIS state —
			// either our view is stale (a rebalance retired the shard and
			// an install closed its connections out from under us, with
			// the down-marks landing before this multiget could learn the
			// new epoch) or the replicas are genuinely gone. A topology
			// poll is cheap next to failing the whole sub-task: if it (or
			// a concurrent install) surfaces a newer state, the shard is
			// not dead, our view of it is — re-bucket the batch under the
			// fresh state.
			if depth < maxEpochHops {
				if nst := c.refreshTopology(ctx, st); nst != st {
					return c.retryStrays(ctx, st, b, res, depth, opts)
				}
			}
			if ctx.Err() != nil {
				// The budget ran out while the replicas were exhausted:
				// report the deadline, not a dead shard.
				return ctxErr(ctx, fmt.Sprintf("shard %d replicas exhausted", b.shard))
			}
			return fmt.Errorf("%w %d", ErrNoReplica, b.shard)
		}
		tried[rep] = true
		slot := st.slotOf(b.shard, rep)
		sc := slot.conn.Load()
		if sc == nil {
			// The replica went down since it was chosen (or we lost a race
			// with markDown's connection teardown): treat like a transport
			// failure and fail over.
			scorer.OnError(rep, n)
			continue
		}

		var resp *wire.BatchResp
		if pol.Mode != HedgeOff && st.topo.Replicas() > 1 {
			var err error
			var fired int
			resp, rep, fired, err = c.hedgedBatch(ctx, st, scorer, b, rep, slot, sc, tried, pol)
			if fired > 0 {
				// res slots are disjoint across sub-batches but Hedged is
				// shared; hedges from a failed attempt still cost real work,
				// so they count even when this attempt fails over.
				atomic.AddInt32(&res.Hedged, int32(fired))
			}
			if err != nil {
				if ctx.Err() != nil {
					return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
				}
				// Every hedged attempt's connection died (each already
				// marked down inside): fail over like any transport loss.
				continue
			}
		} else {
			sent := time.Now()
			var err error
			c.batches.Add(1)
			resp, err = sc.batch(ctx, batchReq(st, b, rep))
			if err != nil {
				// The scorer only unwinds outstanding — an aborted batch says
				// nothing about service times.
				scorer.OnError(rep, n)
				if ctx.Err() != nil {
					// The caller's deadline/cancellation ended the wait, not
					// the replica: no down-mark, no failover — the next
					// attempt would be aborted the same way.
					return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
				}
				// Transport failure: mark the replica down (arming the
				// revival prober) and fail over to the next-ranked one.
				c.markDown(slot, sc)
				continue
			}
			c.observe(scorer, rep, b, sent, resp)
		}
		if resp.Epoch > st.topo.Epoch() {
			// The server is ahead of us. Our keys were still served (any
			// strays are handled below), so no retry is needed — but flag
			// the lag so the prober refreshes before a stray forces it.
			c.epochLag.Store(true)
		}
		if resp.Misrouted() {
			// Pre-topology servers cannot tell us what moved; this is
			// configuration skew, not an epoch change, and failover
			// cannot fix it.
			return fmt.Errorf("netstore: server %d rejected batch for shard %d as misrouted", slot.id, b.shard)
		}
		if len(resp.Values) != n {
			return fmt.Errorf("netstore: shard %d returned %d values for %d keys", b.shard, len(resp.Values), n)
		}
		stray := shardBatch{shard: b.shard, taskID: b.taskID}
		for i := range b.keys {
			if resp.Stray != nil && resp.Stray[i] {
				stray.idx = append(stray.idx, b.idx[i])
				stray.keys = append(stray.keys, b.keys[i])
				stray.prios = append(stray.prios, b.prios[i])
				continue
			}
			if resp.Expired != nil && resp.Expired[i] {
				// The server shed this key before service: the budget ran
				// out while it queued. Not a miss, not a stray — deadline
				// expiry, reported as such below.
				expired++
				continue
			}
			orig := b.idx[i]
			res.Values[orig] = resp.Values[i]
			res.Found[orig] = resp.Found[i]
			if resp.Found[i] {
				learnSize(&c.sizes, b.keys[i], int64(len(resp.Values[i])))
				// Cache fill, strictly gated on arrival: the stray and
				// expired branches above never reach here, so a key the
				// server refused or shed can never park a phantom entry
				// (it has no authoritative version to park under).
				if c.cache != nil && len(resp.Versions) == n {
					c.cacheFill(b.keys[i], resp.Values[i], resp.Versions[i])
				}
			}
		}
		var expErr error
		if expired > 0 {
			expErr = expiredKeysError(expired)
		}
		if len(stray.keys) == 0 {
			return expErr
		}
		// Served keys stand, strays go around again.
		stray.cost = b.share(len(stray.keys))
		c.strayRetries.Add(uint64(len(stray.keys)))
		if resp.Epoch < st.topo.Epoch() {
			// The server is BEHIND us: a rebalance's push reached the
			// server we learned st from before it reached this one, so
			// the strays are keys st rightly routes here and this replica
			// does not know it yet. There is nothing newer to refresh to;
			// re-send exactly the strays under the SAME state, untried
			// siblings first (they may already hold st's epoch).
			b, n = stray, len(stray.keys)
			behind = true
			continue
		}
		// The server owns only part of this batch under its newer
		// topology: refresh ours and re-route the strays. The multiget
		// now spans two epochs.
		if depth >= maxEpochHops {
			return errors.Join(expErr, fmt.Errorf("%w (%d stray keys on shard %d)", ErrTopologySkew, len(stray.keys), b.shard))
		}
		return errors.Join(expErr, c.retryStrays(ctx, st, stray, res, depth, opts))
	}
}

// batchReq builds the wire request carrying batch b to replica rep.
func batchReq(st *topoState, b shardBatch, rep int) *wire.BatchReq {
	return &wire.BatchReq{
		TaskID:   b.taskID,
		Shard:    uint32(b.shard),
		Replica:  uint32(rep),
		Epoch:    st.topo.Epoch(),
		Priority: b.prios,
		Keys:     b.keys,
	}
}

// observe folds batch b, sent at sent and answered by replica rep, into
// the shard's scorer — the replica's latency feedback, and the message's
// overhead: the round trip less the time the server held the batch —
// and, when every key was served, into the forecast scale.
func (c *Cluster) observe(scorer *c3.Scorer, rep int, b shardBatch, sent time.Time, resp *wire.BatchResp) {
	n := len(b.keys)
	rtt := float64(time.Since(sent).Nanoseconds())
	scorer.Observe(rep, n, rtt, float64(resp.ServiceNanos)/float64(n), int(resp.QueueLen))
	scorer.ObserveMessage(rtt - float64(resp.WaitNanos))
	if resp.Stray == nil && resp.Expired == nil {
		c.scale.observe(resp.ServiceNanos, b.cost)
	}
}

// strayBeat is how long a reader waits for a topology push it has seen
// evidence of to reach the server it is talking to.
const strayBeat = 25 * time.Millisecond

// retryStrays refreshes the topology and re-buckets b's keys by their
// new owners, fetching each bucket one epoch deeper. Its callers hold
// evidence of a newer topology (a server AHEAD of st rejected the keys,
// or an install retired the shard's connections), so if the poll comes
// back empty it raced the rebalancer's push — wait a beat (ctx-bounded)
// and poll again before declaring skew. A server BEHIND st never gets
// here: fetchBatch re-sends its strays under st.
func (c *Cluster) retryStrays(ctx context.Context, st *topoState, b shardBatch, res *TaskResult, depth int, opts ReadOptions) error {
	nst := c.refreshTopology(ctx, st)
	for i := 0; i < 4 && nst == st; i++ {
		if !sleepCtx(ctx, strayBeat) {
			return ctxErr(ctx, fmt.Sprintf("stray retry on shard %d", b.shard))
		}
		nst = c.refreshTopology(ctx, st)
	}
	if nst == st && nst.topo.HasShard(b.shard) {
		return fmt.Errorf("%w (%d keys of shard %d)", ErrTopologySkew, len(b.keys), b.shard)
	}
	buckets := make(map[int]*shardBatch)
	for i, k := range b.keys {
		sh := nst.topo.ShardOfKey(k)
		nb := buckets[sh]
		if nb == nil {
			nb = &shardBatch{shard: sh, taskID: b.taskID}
			buckets[sh] = nb
		}
		nb.keys = append(nb.keys, k)
		nb.prios = append(nb.prios, b.prios[i])
		nb.idx = append(nb.idx, b.idx[i])
	}
	var errs []error
	for _, nb := range buckets {
		nb.cost = b.share(len(nb.keys))
		rep := c.nextReplica(nst, nb.shard, len(nb.keys), nil)
		if err := c.fetchBatch(ctx, nst, *nb, rep, res, depth+1, opts); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sleepCtx sleeps for d or until ctx ends, reporting whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Topology returns the client's current cached topology (operations and
// test hook).
func (c *Cluster) Topology() *cluster.ShardTopology { return c.state.Load().topo }

// TopologyEpoch returns the epoch the client currently routes under.
func (c *Cluster) TopologyEpoch() uint64 { return c.state.Load().topo.Epoch() }

// ReplicaDown reports whether the client currently considers a replica's
// connection dead (test and operations hook). With revival enabled this
// is transient state, not a verdict.
func (c *Cluster) ReplicaDown(shard, replica int) bool {
	return c.state.Load().slotOf(shard, replica).down.Load()
}

// DownReplicas returns how many servers of the client's current
// topology it considers dead — the whole-cluster form of ReplicaDown,
// for callers that wait for an outage to be over without knowing (or
// racing a refresh of) the topology.
func (c *Cluster) DownReplicas() int {
	st := c.state.Load()
	n := 0
	for _, sid := range st.topo.Servers() {
		if st.slots[sid].down.Load() {
			n++
		}
	}
	return n
}

// PendingHints returns the number of keys hint-buffered for one replica
// (test and operations hook).
func (c *Cluster) PendingHints(shard, replica int) int {
	hb := &c.state.Load().slotOf(shard, replica).hints
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return len(hb.hints)
}

// ScoreOf exposes the C3 score of one replica of one shard (test hook).
func (c *Cluster) ScoreOf(shard, replica int) float64 {
	return c.state.Load().scorers[shard].ScoreOf(replica)
}
