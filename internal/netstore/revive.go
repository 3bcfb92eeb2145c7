package netstore

// Replica revival and catch-up: the failure-recovery half of the cluster
// client. Two mechanisms turn a fail-once replica into a self-healing
// one:
//
//  1. A probe loop periodically redials down-marked replicas and
//     verifies liveness with a wire.Ping/Pong exchange before atomically
//     swapping the fresh connection in and resetting the replica's C3
//     outstanding state (pre-crash EWMAs say nothing about the revived
//     process).
//  2. Hinted handoff: writes a down replica missed are buffered (latest
//     version per key, bounded) and replayed over the new connection
//     before the replica is exposed to reads again, so a replica that
//     kept its store across the restart converges immediately. A write
//     the full buffer drops marks it overflowed, and the replay then
//     copies the shard from the replica's live siblings (catchUp).
//
// Hints live in this client's memory: a client that closes or crashes
// loses its undelivered hints, and nothing heals those writes.
//
// All repair writes carry their original versions and servers apply
// them last-writer-wins (kv.SetVersion/DeleteVersion), so replays and
// races are idempotent and can never roll a replica backwards. Repair
// traffic is topology-aware: a hint whose key moved to another shard by
// the time it replays is forwarded to the key's current owner (it may
// hold the only surviving copy of an acknowledged write), never forced
// onto a server that no longer owns it and never dropped.
//
// With durable replicas (netstore.NewDurableServer), recovery is local
// first: a restarting server replays its snapshot + WAL before Serve
// ever accepts a connection, so by the time the probe's Ping succeeds
// the disk state is already live and hints are a strictly-newer top-up
// covering only the post-crash window — not the primary recovery path.
// The LWW rule above is what makes the two sources compose: hint replay
// over recovered state is the same idempotent merge as hint replay over
// an empty store, just with far less left to do.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/wire"
)

// repairCtx bounds one background exchange: the cluster's root context
// (so Close cancels it) narrowed to clientDialTimeout (so one wedged
// server cannot capture the prober).
func (c *Cluster) repairCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(c.rootCtx, clientDialTimeout)
}

// repairWrite is one ctx-bounded versioned write of repair traffic.
func (c *Cluster) repairWrite(sc *serverConn, key string, v versioned, epoch uint64) error {
	ctx, cancel := c.repairCtx()
	defer cancel()
	return sc.write(ctx, key, v, epoch)
}

// versioned is one key's copy as a write left it — a value, or a
// tombstone when dead — in hints, catch-up and migration alike.
type versioned struct {
	val  []byte
	ver  uint64
	dead bool
}

// latest maps keys to the newest copy seen of each.
type latest map[string]versioned

// keep records v for key unless a copy at least as new is already there.
func (m latest) keep(key string, v versioned) {
	if cur, ok := m[key]; !ok || v.ver > cur.ver {
		m[key] = v
	}
}

// hintBuffer is the per-server hinted-handoff buffer: latest missed
// write per key, bounded by maxHintsPerReplica.
type hintBuffer struct {
	mu    sync.Mutex
	hints latest
	// overflowed marks a dropped write: replayHints catches the server
	// up from its siblings.
	overflowed bool
	// inFlight counts hints a replay took out of the buffer and has not
	// yet delivered, forwarded or put back.
	inFlight int
}

// owed returns how many hinted writes the buffer has yet to deliver:
// those buffered and those a replay has in flight.
func (hb *hintBuffer) owed() int {
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return len(hb.hints) + hb.inFlight
}

// addHint buffers a write the slot's server missed. Values are copied
// (the caller's buffer may be reused); newer versions replace older ones
// for the same key without growing the buffer. An overflow drop is
// counted and marks the buffer overflowed. A hint stays on the slot it
// was buffered for, current or retired; replayHints decides where it
// goes.
func (c *Cluster) addHint(slot *serverSlot, key string, value []byte, version uint64, del bool) {
	hb := &slot.hints
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if cur, ok := hb.hints[key]; ok {
		if cur.ver >= version {
			return
		}
	} else if len(hb.hints) >= maxHintsPerReplica {
		c.hintOverflows.Add(1)
		hb.overflowed = true
		return
	}
	var cp []byte
	if !del {
		cp = append([]byte(nil), value...)
	}
	if hb.hints == nil {
		hb.hints = make(latest)
	}
	hb.hints[key] = versioned{val: cp, ver: version, dead: del}
}

// removeHint retracts the hint for key at exactly version ver — a write
// that failed on every replica takes back what it buffered. A newer
// hint for the key (a later write) stays.
func (c *Cluster) removeHint(slot *serverSlot, key string, ver uint64) {
	hb := &slot.hints
	hb.mu.Lock()
	if h, ok := hb.hints[key]; ok && h.ver == ver {
		delete(hb.hints, key)
	}
	hb.mu.Unlock()
}

// replayHints delivers every write buffered for the slot's server
// under the one hint rule: a hint replays to its own server (over sc)
// while that server still owns the key's shard, and otherwise goes to
// the key's current owners — the server may have retired, or the key
// moved away, and a hint can hold the only surviving copy of an
// acknowledged write (a 1-ack write whose acking donor replica never got
// scanned), so it is never force-fed to a server that no longer owns it
// and never dropped. A NotOwner from the server proves the key moved
// under a topology newer than ours: that hint re-routes too.
//
// An overflowed server still in the topology is then caught up
// (catchUp). The mark is taken with the hints; a drop happens only into
// a full buffer, so the sibling writes that raced the drop have landed
// by the time this pass has replayed that buffer and scans. On a
// transport failure the unreplayed remainder (newer hints buffered
// meanwhile win) and the mark are merged back and the error returned;
// the mark also stays when no sibling could be scanned.
func (c *Cluster) replayHints(slot *serverSlot, sc *serverConn) error {
	st := c.state.Load()
	shard := st.topo.ShardOfServer(slot.id)
	if sc == nil && shard >= 0 {
		return fmt.Errorf("netstore: no connection to server %d", slot.id)
	}
	hb := &slot.hints
	hb.mu.Lock()
	pending, overflowed := hb.hints, hb.overflowed
	hb.hints, hb.overflowed = nil, false
	taken := len(pending)
	hb.inFlight += taken
	hb.mu.Unlock()
	defer func() {
		hb.mu.Lock()
		hb.inFlight -= taken
		hb.mu.Unlock()
	}()
	putBack := func(err error) error {
		hb.mu.Lock()
		if hb.hints == nil {
			hb.hints = make(latest)
		}
		for k, h := range pending {
			hb.hints.keep(k, h)
		}
		hb.overflowed = hb.overflowed || overflowed
		hb.mu.Unlock()
		return err
	}
	// A NotOwner during replay proves the rejecting server holds a newer
	// (or off-lineage) topology than ours — re-route under a REFRESHED
	// one, or the forward just re-targets the same stale owner and the
	// hint bounces. One refresh covers the whole batch.
	var fresh *topoState
	freshState := func() *topoState {
		if fresh == nil {
			fresh = c.refreshTopology(c.rootCtx, st)
		}
		return fresh
	}
	for key, h := range pending {
		if st.topo.ShardOfKey(key) != shard {
			c.rerouteHint(st, key, h)
		} else if err := c.repairWrite(sc, key, h, st.topo.Epoch()); errors.As(err, new(*NotOwnerError)) {
			c.rerouteHint(freshState(), key, h)
		} else if err != nil {
			return putBack(err)
		}
		delete(pending, key)
	}
	if overflowed && shard >= 0 {
		if scanned, err := c.catchUp(st, slot, shard); !scanned || err != nil {
			return putBack(err)
		}
	}
	return nil
}

// catchUp copies the shard onto the slot's server with the rebalancer's
// helpers: it scans every live sibling (scanAll), keeps the newest copy
// of each key st puts in the shard, tombstones included, and replays
// them with their versions (replayEntries). Each scan page and replay
// window is bounded by clientDialTimeout; a sibling whose scan fails is
// skipped. It reports whether any sibling was scanned. A NotOwner means
// our topology is stale: the prober's next tick refreshes it.
func (c *Cluster) catchUp(st *topoState, slot *serverSlot, shard int) (bool, error) {
	entries, scanned := make(latest), false
	for _, sid := range st.topo.ReplicaServers(shard) {
		sib := st.slots[sid]
		if sid == slot.id || sib.down.Load() {
			continue
		}
		err := scanAll(c.rootCtx, sib.addr, func(key string, val []byte, ver uint64, dead bool) {
			if st.topo.ShardOfKey(key) == shard {
				entries.keep(key, versioned{val, ver, dead})
			}
		})
		if c.rootCtx.Err() != nil {
			return false, c.rootCtx.Err()
		}
		scanned = scanned || err == nil
	}
	if !scanned {
		return false, nil
	}
	err := replayEntries(c.rootCtx, slot.addr, st.topo.Epoch(), entries)
	if errors.As(err, new(*NotOwnerError)) {
		c.epochLag.Store(true)
	}
	return true, err
}

// rerouteHint forwards a hint whose key no longer belongs to the server
// it was buffered for onto the key's current owner replicas. Versioned
// writes make the forward idempotent; replicas that are down or fail —
// including a NotOwner, which means the topology moved AGAIN between
// the caller's refresh and this forward — get the hint re-buffered
// under their own slot, so the data keeps chasing its owner across
// epochs (each prober pass re-resolves ownership afresh) instead of
// vanishing.
func (c *Cluster) rerouteHint(st *topoState, key string, h versioned) {
	shard := st.topo.ShardOfKey(key)
	for r := 0; r < st.topo.Replicas(); r++ {
		owner := st.slotOf(shard, r)
		osc := owner.conn.Load()
		if osc == nil || owner.down.Load() || c.repairWrite(osc, key, h, st.topo.Epoch()) != nil {
			c.addHint(owner, key, h.val, h.ver, h.dead)
		}
	}
}

// probeLoop periodically probes down-marked servers and revives the ones
// that answer, and flushes the hints of every other slot. One goroutine
// per cluster client, started by DialCluster, stopped by Close cancelling
// the root context. Each tick walks every slot the client holds: the
// CURRENT topology's servers are probed (so replicas added by a
// rebalance are), and retired servers' slots only have their hints
// forwarded to the keys' current owners.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.rootCtx.Done():
			return
		case <-ticker.C:
		}
		st := c.state.Load()
		if c.epochLag.Swap(false) {
			// A batch response showed a server running a newer epoch:
			// refresh proactively so the next rebalance-moved key is
			// routed right the first time instead of via a stray bounce.
			st = c.refreshTopology(c.rootCtx, st)
		}
		for sid, slot := range st.slots {
			select {
			case <-c.rootCtx.Done():
				return
			default:
			}
			if st.topo.ShardOfServer(sid) >= 0 && slot.down.Load() {
				c.tryRevive(st, slot)
				continue
			}
			// Flush the rest: a retired server's hints go to their keys'
			// current owners, and a live server's are stragglers that
			// slipped past its revival's replay — a write racing the
			// prober can load the down mark just before it clears and
			// buffer a hint for a replica that is already back up — or
			// await a catch-up its revival found no live sibling for.
			_ = c.replayHints(slot, slot.conn.Load())
		}
	}
}

// tryRevive redials one down server, verifies it serves with a ping,
// replays its hinted writes (catching it up from its siblings if its
// hint buffer overflowed), and only then swaps the fresh connection in
// and clears the down mark — reads never hit a revived replica this
// client hasn't caught up yet.
func (c *Cluster) tryRevive(st *topoState, slot *serverSlot) {
	sc, err := dialServer(slot.addr)
	if err != nil {
		return
	}
	// The ping and the hint replay are one exchange bounded by
	// clientDialTimeout: a server that does not speak the protocol, or
	// answers the ping but never acks a write, cannot wedge the (single)
	// prober. On expiry the revival is abandoned and the unreplayed
	// remainder re-buffers, so retries make progress through a huge
	// buffer. A catch-up has connections and bounds of its own: one that
	// outlasts the exchange still clears the mark for the next tick.
	if err := sc.within(c.rootCtx, func(ctx context.Context) error {
		if _, err := replyAs[*wire.Pong](sc.call(ctx, &wire.Ping{}, "ping")); err != nil {
			return err
		}
		return c.replayHints(slot, sc)
	}); err != nil {
		sc.close()
		return
	}
	// The revived process shares nothing with the crashed one: drop the
	// replica's C3 outstanding/EWMA state so stale pre-crash feedback
	// neither penalizes nor favors it.
	shard := st.topo.ShardOfServer(slot.id)
	if shard >= 0 {
		if scorer := st.scorers[shard]; scorer != nil {
			for r, sid := range st.topo.ReplicaServers(shard) {
				if sid == slot.id {
					scorer.Reset(r)
					break
				}
			}
		}
	}
	// Clear the down mark BEFORE publishing the connection. In the
	// reverse order, an operation failing on the freshly swapped conn
	// could markDown (conn→nil, down→true) and then lose its down mark
	// to this goroutine's store — leaving conn nil with down false,
	// which the prober never probes again. With this order the down mark
	// set by any failure on the new conn survives, and the only race
	// window is a read skipping the replica for the instant between the
	// two stores.
	slot.down.Store(false)
	if old := slot.conn.Swap(sc); old != nil {
		old.close()
	}
	// A topology install may have retired this slot while the revival
	// was in flight, closing the connection it found there — before we
	// published ours. Retire it ourselves (the Swap hands the conn to
	// exactly one closer even if an install raced us here).
	if c.state.Load().topo.ShardOfServer(slot.id) < 0 {
		slot.retire()
		return
	}
	c.revivals.Add(1)
}

// ScanVersions dials one server directly (bypassing replica selection)
// and reads the stored versions of keys from it, bounded by ctx and
// timeout (earliest wins). CheckConvergence runs it over every replica;
// shard is the server's shard group (shard-checking servers reject
// mismatches, and topology-holding servers reject keys they do not own
// — scan only keys the target owns).
func ScanVersions(ctx context.Context, addr string, shard int, keys []string, timeout time.Duration) (versions []uint64, found []bool, err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, err
	}
	sc := newServerConn(conn)
	defer sc.close()
	resp, err := sc.batch(ctx, &wire.BatchReq{
		Shard:    uint32(shard),
		Priority: make([]int64, len(keys)),
		Keys:     keys,
	})
	if err != nil {
		return nil, nil, err
	}
	if resp.Misrouted() {
		return nil, nil, fmt.Errorf("netstore: server %s rejected scan for shard %d as misrouted", addr, shard)
	}
	if resp.Stray != nil {
		n := 0
		for _, s := range resp.Stray {
			if s {
				n++
			}
		}
		if n > 0 {
			return nil, nil, fmt.Errorf("netstore: server %s rejected %d of %d scanned keys as not owned", addr, n, len(keys))
		}
	}
	if len(resp.Versions) != len(keys) || len(resp.Found) != len(keys) {
		return nil, nil, fmt.Errorf("netstore: scan of %s returned %d versions for %d keys", addr, len(resp.Versions), len(keys))
	}
	return resp.Versions, resp.Found, nil
}

// Convergence is what CheckConvergence found, counted in (key, replica)
// pairs.
type Convergence struct {
	// Diverged counts replicas serving another version than their
	// shard's replica 0; Lost replicas serving less than the key's acked
	// version; Absent replicas on which the key is not found — deleted or
	// never written, so a violation only where every key is live.
	Diverged, Lost, Absent int
	// Examples describe the first five divergences and the first five
	// losses, in the order found.
	Examples []string
}

// CheckConvergence checks the store's promise after a run, scanning
// every replica of each key's owner shard under topo directly (no
// replica selection): all of them serve the same version, and that
// version is at least acked[key] (a nil map asks only for agreement).
// Divergence after an outage, an acked write lost through a crash and a
// key that did not reach its new owner in a rebalance all break it. A
// scan that fails ends the check with an error naming the replica.
func CheckConvergence(ctx context.Context, topo *cluster.ShardTopology, keys []string, acked map[string]uint64) (Convergence, error) {
	var cv Convergence
	byShard := map[int][]string{}
	for _, k := range keys {
		shard := topo.ShardOfKey(k)
		byShard[shard] = append(byShard[shard], k)
	}
	for _, shard := range topo.ShardIDs() {
		// Paged, so no response frame carries a whole shard's values.
		for ks := byShard[shard]; len(ks) > 0; ks = ks[min(512, len(ks)):] {
			page := ks[:min(512, len(ks))]
			var ref []uint64
			for r := 0; r < topo.Replicas(); r++ {
				addr := topo.Addr(topo.Server(shard, r))
				vers, found, err := ScanVersions(ctx, addr, shard, page, 5*time.Second)
				if err != nil {
					return cv, fmt.Errorf("scan of shard %d replica %d (%s): %w", shard, r, addr, err)
				}
				if r == 0 {
					ref = vers
				}
				for i, k := range page {
					if !found[i] {
						cv.Absent++
					}
					if vers[i] != ref[i] {
						if cv.Diverged++; cv.Diverged <= 5 {
							cv.Examples = append(cv.Examples, fmt.Sprintf("%s diverged on shard %d: replica 0 v%d, replica %d v%d", k, shard, ref[i], r, vers[i]))
						}
					}
					if vers[i] < acked[k] {
						if cv.Lost++; cv.Lost <= 5 {
							cv.Examples = append(cv.Examples, fmt.Sprintf("%s acked at v%d but shard %d replica %d serves v%d", k, acked[k], shard, r, vers[i]))
						}
					}
				}
			}
		}
	}
	return cv, nil
}
