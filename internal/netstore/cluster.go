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
	// returns a channel that fires at deadline at plus an idempotent
	// stop function. nil uses time.NewTimer.
	hedgeTimer func(at time.Time) (<-chan time.Time, func())
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

	// sizes caches learned value sizes for cost forecasting. A Multiget
	// reads it under one RLock; answers and writes store under the lock.
	sizesMu sync.RWMutex
	sizes   map[string]int64
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
	c := &Cluster{opts: opts, sizes: make(map[string]int64)}
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
		shard, epoch := st.topo.ShardOfKey(key), st.topo.Epoch()
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
				werr := sc.write(ctx, key, versioned{value, ver, del}, epoch)
				v := writeVerdict{err: werr}
				switch {
				case werr == nil:
				case errors.As(werr, new(*NotOwnerError)):
					// The server's (newer) topology places the key
					// elsewhere: no hint — this replica will never own it.
				case spent(ctx):
					// The caller's deadline/cancellation cut the wait
					// short, or left no budget to send with; the replica
					// may be healthy and may even have applied the
					// write. Hint it (versioned, idempotent —
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
			c.sizesMu.Lock()
			if del {
				delete(c.sizes, key)
			} else {
				c.sizes[key] = int64(len(value))
			}
			c.sizesMu.Unlock()
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
		if spent(ctx) {
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
			return res, nil
		}
	}
	mg := multigets.Get().(*multiget)
	if opts.Hedge.Mode == HedgeOff {
		// A hedge's losing attempt outlives the call and still reads its
		// batch's keys (noteResponseVersions), so a hedged call leaves its
		// working set to the collector.
		defer mg.recycle()
	}

	// Build the task over the uncached keys with forecasted costs;
	// Group carries the shard so core.DecomposeInto yields exactly one
	// sub-task per shard touched, and each request's ID remains the
	// key's slot in the ORIGINAL list so results land in place.
	mg.task = core.Task{ID: c.taskSeq.Add(1), Client: c.opts.Client, Requests: reuse(mg.task.Requests, pending)}
	task := &mg.task
	mg.reqs = reuse(mg.reqs, pending)
	c.sizesMu.RLock()
	for i, k := range keys {
		if res.Found[i] {
			continue // served from the cache above
		}
		size, ok := c.sizes[k]
		if !ok {
			size = defaultSize
		}
		mg.reqs = append(mg.reqs, core.Request{
			ID:      uint64(i),
			TaskID:  task.ID,
			Client:  c.opts.Client,
			Group:   cluster.GroupID(st.topo.ShardOfKey(k)),
			Size:    size,
			EstCost: c.opts.CostModel.Estimate(size),
		})
		task.Requests = append(task.Requests, &mg.reqs[len(mg.reqs)-1])
	}
	c.sizesMu.RUnlock()
	mg.subs = core.DecomposeInto(mg.subs, task)
	c.opts.Assigner.Assign(task, mg.subs)
	// One slab each for the keys, priorities, forecast sizes and result
	// slots of the whole task, sub-task after sub-task; batches and
	// pieces are windows onto them.
	ks, ps := reuse(mg.keys, pending), reuse(mg.prios, pending)
	zs, ix := reuse(mg.sizes, pending), reuse(mg.idx, pending)
	pieces := mg.pieces[:0]
	scale := c.scale.factor()
	for i := range mg.subs {
		sub := &mg.subs[i]
		lo := len(ks)
		for _, r := range sub.Requests {
			ks = append(ks, keys[r.ID])
			ps = append(ps, int64(float64(r.Priority)*scale)+opts.PriorityBias)
			zs = append(zs, r.Size)
			ix = append(ix, int(r.ID))
		}
		b := shardBatch{shard: int(sub.Group), taskID: task.ID, cost: sub.Cost, keys: ks[lo:], prios: ps[lo:], sizes: zs[lo:], idx: ix[lo:]}
		pieces = c.place(st, b, pieces)
	}
	mg.keys, mg.prios, mg.sizes, mg.idx, mg.pieces = ks, ps, zs, ix, pieces
	c.subtasks.Add(uint64(len(mg.subs)))
	if last := len(pieces) - 1; cap(mg.errs) < last {
		mg.errs = make(chan error, last)
	}
	return res, c.scatter(ctx, st, pieces, mg.errs, res, opts)
}

// scatter fetches every piece into res and joins their errors. It
// sends every piece's first leg from the caller's goroutine, so the
// whole task is on the wire before any piece waits and no goroutine
// grows a stack on the send path. Then every piece but the last waits
// on a goroutine of its own and reports on errCh; the last waits here,
// so a multiget that is one message (Get, a single-shard read) starts
// none. A piece with no live replica sends nothing here: its topology
// poll waits in fetchBatch, beside the other pieces' waits.
func (c *Cluster) scatter(ctx context.Context, st *topoState, pieces []piece, errCh chan error, res *TaskResult, opts ReadOptions) error {
	last := len(pieces) - 1
	for i := range pieces {
		if p := &pieces[i]; p.rep >= 0 {
			p.lead, p.sent = c.send(ctx, st, p, p.shardBatch, p.rep), true
		}
	}
	for i := range pieces[:last] {
		p := &pieces[i]
		go func() { errCh <- c.fetchBatch(ctx, st, p, res, 0, opts) }()
	}
	var errs []error
	if err := c.fetchBatch(ctx, st, &pieces[last], res, 0, opts); err != nil {
		errs = append(errs, err)
	}
	for range pieces[:last] {
		if err := <-errCh; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// multiget is one Multiget call's working set: the task with its
// request slab and sub-tasks, the per-key slabs its batches are windows
// of, the scatter's pieces (each with its wire request and tried set)
// and the channel they report on. It comes from multigets and goes back
// when the call returns; only the TaskResult and the values it holds
// are the caller's.
type multiget struct {
	task   core.Task
	reqs   []core.Request
	subs   []core.SubTask
	keys   []string
	prios  []int64
	sizes  []int64
	idx    []int
	pieces []piece
	errs   chan error
}

var multigets = sync.Pool{New: func() any { return new(multiget) }}

// recycle returns mg to the pool, dropping its references to callers'
// key strings.
func (mg *multiget) recycle() {
	clear(mg.keys[:cap(mg.keys)])
	clear(mg.pieces[:cap(mg.pieces)])
	multigets.Put(mg)
}

// reuse returns s emptied if it can hold n elements, or a new slice
// that can: the windows Multiget takes of its slabs stay valid while it
// appends.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
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
	sizes  []int64 // the value size each key's forecast assumed
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
	b.keys, b.prios, b.sizes, b.idx = b.keys[lo:hi], b.prios[lo:hi], b.sizes[lo:hi], b.idx[lo:hi]
	return b
}

// add appends key i of from to b.
func (b *shardBatch) add(from shardBatch, i int) {
	b.keys = append(b.keys, from.keys[i])
	b.prios = append(b.prios, from.prios[i])
	b.sizes = append(b.sizes, from.sizes[i])
	b.idx = append(b.idx, from.idx[i])
}

// piece is one message of a multiget's scatter: the keys of one
// sub-task that placement put on replica rep, already counted
// outstanding in the shard's scorer. rep < 0: the shard has no live
// replica. The request and tried set are what fetchBatch reuses across
// the piece's attempts.
type piece struct {
	shardBatch
	rep    int
	req    wire.BatchReq
	triedR [c3.InlineReplicas]bool
	// lead is the first leg, which scatter sent to rep before any piece
	// waited; sent says fetchBatch has yet to take it over.
	lead leg
	sent bool
}

// request fills p's wire request with batch b for replica rep. Send
// encodes a request before it returns, so each attempt may refill it.
func (p *piece) request(st *topoState, b shardBatch, rep int) *wire.BatchReq {
	p.req = wire.BatchReq{
		TaskID:   b.taskID,
		Shard:    uint32(b.shard),
		Replica:  uint32(rep),
		Epoch:    st.topo.Epoch(),
		Priority: b.prios,
		Keys:     b.keys,
	}
	return &p.req
}

// tried returns an empty tried set over r replicas.
func (p *piece) tried(r int) []bool {
	if r > len(p.triedR) {
		return make([]bool, r)
	}
	t := p.triedR[:r]
	clear(t)
	return t
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
		return append(pieces, piece{shardBatch: b, rep: -1})
	}
	lo := 0
	for r, k := range counts {
		if k > 0 {
			pieces = append(pieces, piece{shardBatch: b.slice(lo, lo+k), rep: r})
			lo += k
		}
	}
	return pieces
}

// leg is one attempt at a batch: its request to one replica, where the
// scorer counts the batch's keys outstanding until the leg ends. A leg
// whose ch is nil is not in flight.
type leg struct {
	rep  int
	slot *serverSlot
	sc   *serverConn
	id   uint64
	ch   chan wire.Message
	sent time.Time
}

// send starts a leg of b to replica rep, where the scorer already
// counts b outstanding. A leg that cannot go out is not in flight: its
// count is unwound and, unless the connection was already gone or ctx's
// budget is spent, its replica marked down.
func (c *Cluster) send(ctx context.Context, st *topoState, p *piece, b shardBatch, rep int) leg {
	l := leg{rep: rep, slot: st.slotOf(b.shard, rep)}
	if l.sc = l.slot.conn.Load(); l.sc == nil {
		// The replica went down since it was chosen (or we lost a race
		// with markDown's connection teardown).
		st.scorers[b.shard].OnError(rep, len(b.keys))
		return l
	}
	l.sent = time.Now()
	c.batches.Add(1)
	var err error
	if l.id, l.ch, err = l.sc.start(ctx, p.request(st, b, rep), "batch"); err != nil {
		c.lose(ctx, st.scorers[b.shard], len(b.keys), l)
	}
	return l
}

// lose unwinds a leg whose connection died or whose request could not
// be sent. The scorer only unwinds outstanding — a lost batch says
// nothing about service times — and the replica is marked down (arming
// the revival prober) unless ctx's budget is spent: then the caller gave
// up, and the replica may be fine.
func (c *Cluster) lose(ctx context.Context, scorer *c3.Scorer, n int, l leg) {
	scorer.OnError(l.rep, n)
	if !spent(ctx) {
		c.markDown(l.slot, l.sc)
	}
}

// land folds what leg l's channel delivered into the shard's scorer and
// returns the answer. A closed channel — the connection died — loses
// the leg and returns nil. Every answer carries authoritative versions,
// so the cache checks its entries against them.
func (c *Cluster) land(ctx context.Context, scorer *c3.Scorer, b shardBatch, l leg, m wire.Message) *wire.BatchResp {
	resp, _ := m.(*wire.BatchResp)
	if resp == nil {
		c.lose(ctx, scorer, len(b.keys), l)
		return nil
	}
	replyChans.Put(l.ch)
	c.observe(scorer, l.rep, b, l.sent, resp)
	c.noteResponseVersions(b, resp)
	return resp
}

// outlive waits for a leg its batch no longer needs, so that a late
// answer still reaches the scorer and the cache. The protocol has no
// cancel frame: the replica does the work anyway. The wait is detached
// from ctx's cancellation — Multiget ends its context when it returns,
// usually before a loser answers — but bounded by ctx's deadline, the
// budget that rode the wire with the leg, and by Close.
func (c *Cluster) outlive(ctx context.Context, scorer *c3.Scorer, b shardBatch, l leg) {
	d, bounded := ctx.Deadline()
	ctx = context.WithoutCancel(ctx) // which drops the deadline too
	if bounded {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	select {
	case m := <-l.ch:
		if resp := c.land(ctx, scorer, b, l, m); resp != nil {
			resp.Release()
		}
	case <-ctx.Done():
		c.drop(scorer, b, l)
	case <-c.rootCtx.Done():
		c.drop(scorer, b, l)
	}
}

// drop gives up on leg l: its late reply is discarded and the scorer
// unwinds the leg's outstanding keys.
func (c *Cluster) drop(scorer *c3.Scorer, b shardBatch, l leg) {
	l.sc.abandon(l.id)
	scorer.OnError(l.rep, len(b.keys))
}

// fetchBatch gets one batch of a shard's keys answered, starting at
// replica rep, where the caller already counted them outstanding
// (place, nextReplica). It runs one loop over at most two legs in
// flight: the primary and, once the hedge trigger fires, one hedge to
// the best-ranked untried live replica. The first answer decides the
// batch. A leg whose connection dies is lost; when no leg is left in
// flight the batch fails over to the next-ranked untried replica, as a
// new primary that may hedge once again. Every path out balances the
// scorer: a leg ends in Observe (answered) or OnError (send failure,
// dead connection, ctx), and a leg still in flight when the batch is
// decided is left to outlive.
//
// Keys the server rejects as strays (a rebalance moved them) are
// re-bucketed under a refreshed topology and retried, up to
// maxEpochHops epochs deep; strays from a server still BEHIND st's epoch
// are re-sent under st instead. Result slots are disjoint across concurrent
// calls, so writes into res need no locking.
//
// The whole chain observes ctx: the select waits on ctx.Done(), a leg
// that ctx ended does not mark its replica down, and no further leg
// starts once ctx is done.
func (c *Cluster) fetchBatch(ctx context.Context, st *topoState, p *piece, res *TaskResult, depth int, opts ReadOptions) error {
	// b.shard is always bucketed from st.topo by the caller (Multiget or
	// retryStrays), so the shard exists in st by construction.
	b, rep := p.shardBatch, p.rep
	scorer := st.scorers[b.shard]
	n := len(b.keys)
	tried := p.tried(st.topo.Replicas())
	// trigger fires the hedge. It stays nil with hedging off or no
	// second replica, and goes nil again once it fired.
	var trigger <-chan time.Time
	stop := func() {}
	defer func() { stop() }()
	pol := opts.Hedge.withDefaults()
	hedging := pol.Mode != HedgeOff && st.topo.Replicas() > 1
	// arm sets the trigger for the primary leg sent at from.
	arm := func(primary int, from time.Time) {
		stop()
		trigger, stop = c.newHedgeTimer(from.Add(pol.triggerDelay(scorer, primary)))
	}
	// behind: a replica answered strays from an OLDER topology than st's
	// (see the stray handling below); b has shrunk to those strays.
	behind := false
	// expired counts keys shed by answers whose strays went around again.
	expired := 0
	// Each pass starts a primary leg: the first try, a failover once
	// every leg's connection died, or strays re-sent under st.
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
			if spent(ctx) {
				// The budget ran out while the replicas were exhausted:
				// report the deadline, not a dead shard.
				return ctxErr(ctx, fmt.Sprintf("shard %d replicas exhausted", b.shard))
			}
			return fmt.Errorf("%w %d", ErrNoReplica, b.shard)
		}
		tried[rep] = true
		// legs[0] is the primary, legs[1] its hedge once hedged.
		var legs [2]leg
		if p.sent {
			legs[0], p.sent = p.lead, false
		} else {
			legs[0] = c.send(ctx, st, p, b, rep)
		}
		if legs[0].ch == nil {
			if spent(ctx) {
				return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
			}
			continue
		}
		if hedging {
			arm(rep, legs[0].sent)
		}
		// l is the leg that answered last; resp is its answer, nil while
		// no leg has answered or when l's connection died. won says the
		// hedge answered first.
		var l leg
		var resp *wire.BatchResp
		hedged, won := false, false
		for resp == nil && (legs[0].ch != nil || legs[1].ch != nil) {
			var m wire.Message
			i := 0
			select {
			case m = <-legs[0].ch:
			case m = <-legs[1].ch:
				i = 1
			case <-trigger:
				trigger = nil
				if _, ok := budgetOf(ctx); !ok {
					continue // deadline spent: a hedge would be shed on arrival
				}
				h := c.nextReplica(st, b.shard, n, tried)
				if h < 0 {
					continue // nothing left to hedge to; ride out the primary
				}
				tried[h] = true
				if legs[1] = c.send(ctx, st, p, b, h); legs[1].ch == nil {
					arm(rep, time.Now()) // re-arm and re-rank
					continue
				}
				hedged = true
				c.hedgesFired.Add(1)
				// res slots are disjoint across sub-batches but Hedged is
				// shared; a hedge costs real work whether or not it wins.
				atomic.AddInt32(&res.Hedged, 1)
				continue
			case <-ctx.Done():
				// The caller's deadline or cancellation ended the wait, not
				// the replicas: no down-mark, no failover.
				for j := range legs {
					if legs[j].ch != nil {
						c.drop(scorer, b, legs[j])
						legs[j].ch = nil
					}
				}
				continue
			}
			l = legs[i]
			legs[i].ch = nil
			// A dead connection leaves resp nil: ride out the other leg.
			resp = c.land(ctx, scorer, b, l, m)
			won = resp != nil && i == 1
		}
		if won {
			c.hedgesWon.Add(1)
		} else if hedged {
			c.hedgesWasted.Add(1)
		}
		if resp == nil {
			// Every leg's connection died, or ctx ended.
			if spent(ctx) {
				return ctxErr(ctx, fmt.Sprintf("multiget batch on shard %d", b.shard))
			}
			continue // fail over
		}
		for _, o := range legs {
			if o.ch != nil {
				go c.outlive(ctx, scorer, b, o)
			}
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
			resp.Release()
			return fmt.Errorf("netstore: server %d rejected batch for shard %d as misrouted", l.slot.id, b.shard)
		}
		if len(resp.Values) != n {
			resp.Release()
			return fmt.Errorf("netstore: shard %d returned %d values for %d keys", b.shard, len(resp.Values), n)
		}
		stray, shed := c.take(b, resp, res)
		behindUs := resp.Epoch < st.topo.Epoch()
		resp.Release()
		expired += shed
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
		if behindUs {
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

// take stores the keys of b that resp served into res — each value
// where Multiget's caller will find it, with no copy: it lives in the
// response's slab — and returns the keys the server refused as strays
// and the number it shed as expired. It learns each served key's size
// where it differs from the one b's forecast assumed — taking the sizes
// lock only then — and fills the hot-key cache.
func (c *Cluster) take(b shardBatch, resp *wire.BatchResp, res *TaskResult) (stray shardBatch, expired int) {
	n := len(b.keys)
	stray = shardBatch{shard: b.shard, taskID: b.taskID}
	locked := false
	for i := range b.keys {
		if resp.Stray != nil && resp.Stray[i] {
			stray.add(b, i)
			continue
		}
		if resp.Expired != nil && resp.Expired[i] {
			// The server shed this key before service: the budget ran
			// out while it queued. Not a miss, not a stray — deadline
			// expiry, reported as such by fetchBatch.
			expired++
			continue
		}
		orig := b.idx[i]
		res.Values[orig] = resp.Values[i]
		res.Found[orig] = resp.Found[i]
		if resp.Found[i] {
			if size := int64(len(resp.Values[i])); size != b.sizes[i] {
				if !locked {
					c.sizesMu.Lock()
					locked = true
				}
				c.sizes[b.keys[i]] = size
			}
			// Cache fill, strictly gated on arrival: the stray and
			// expired branches above never reach here, so a key the
			// server refused or shed can never park a phantom entry
			// (it has no authoritative version to park under).
			if c.cache != nil && len(resp.Versions) == n {
				c.cacheFill(b.keys[i], resp.Values[i], resp.Versions[i])
			}
		}
	}
	if locked {
		c.sizesMu.Unlock()
	}
	return stray, expired
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
	buckets := make(map[int]*piece)
	for i, k := range b.keys {
		sh := nst.topo.ShardOfKey(k)
		p := buckets[sh]
		if p == nil {
			p = &piece{shardBatch: shardBatch{shard: sh, taskID: b.taskID}}
			buckets[sh] = p
		}
		p.add(b, i)
	}
	var errs []error
	for _, p := range buckets {
		p.cost = b.share(len(p.keys))
		p.rep = c.nextReplica(nst, p.shard, len(p.keys), nil)
		if err := c.fetchBatch(ctx, nst, p, res, depth+1, opts); err != nil {
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

// PendingHints returns the number of hinted writes the client has yet
// to deliver to one replica, those a replay has in flight included
// (test and operations hook).
func (c *Cluster) PendingHints(shard, replica int) int {
	return c.state.Load().slotOf(shard, replica).hints.owed()
}

// HintsOwed is PendingHints summed over every server slot the client
// holds, retired ones included: a client that closes while it owes
// hints loses those writes on the replicas that missed them.
func (c *Cluster) HintsOwed() int {
	n := 0
	for _, slot := range c.state.Load().slots {
		n += slot.hints.owed()
	}
	return n
}

// ScoreOf exposes the C3 score of one replica of one shard (test hook).
func (c *Cluster) ScoreOf(shard, replica int) float64 {
	return c.state.Load().scorers[shard].ScoreOf(replica)
}
