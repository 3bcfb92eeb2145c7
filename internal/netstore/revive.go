package netstore

// Replica revival and catch-up repair: the failure-recovery half of the
// cluster client. Three mechanisms cooperate to turn a fail-once replica
// into a self-healing one:
//
//  1. A probe loop periodically redials down-marked replicas and
//     verifies liveness with a wire.Ping/Pong exchange before atomically
//     swapping the fresh connection in and resetting the replica's C3
//     outstanding state (pre-crash EWMAs say nothing about the revived
//     process).
//  2. Hinted handoff: writes a down replica missed are buffered (latest
//     version per key, bounded) and replayed over the new connection
//     before the replica is exposed to reads again, so a replica that
//     kept its store across the restart converges immediately.
//  3. Read-repair: a batch response revealing a version older than this
//     client last wrote triggers a background push of the freshest copy
//     (fetched from the other replicas) — the safety net for hints that
//     overflowed the buffer or died with another client.
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

	"github.com/brb-repro/brb/internal/wire"
)

// repairCtx bounds one background repair/replay write: the cluster's
// root context (so Close cancels it) narrowed to clientDialTimeout (so
// one wedged server cannot capture the prober or a repair slot).
func (c *Cluster) repairCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(c.rootCtx, clientDialTimeout)
}

// repairWrite is one ctx-bounded versioned write of repair traffic.
func (c *Cluster) repairWrite(sc *serverConn, key string, value []byte, version uint64, del bool, rt writeRoute) error {
	ctx, cancel := c.repairCtx()
	defer cancel()
	return sc.write(ctx, key, value, version, del, rt)
}

// maxConcurrentRepairs bounds in-flight read-repair pushes per cluster
// client; excess stale observations are dropped and re-trigger on the
// next read of the key.
const maxConcurrentRepairs = 16

// hint is one write a down replica missed: the latest version of a key,
// or its tombstone.
type hint struct {
	value   []byte
	version uint64
	del     bool
}

// hintBuffer is the per-server hinted-handoff buffer: latest missed
// write per key, bounded by maxHintsPerReplica (writes dropped on
// overflow are healed by read-repair instead).
type hintBuffer struct {
	mu    sync.Mutex
	hints map[string]hint
}

// addHint buffers a write the slot's server missed. Values are copied
// (the caller's buffer may be reused); newer versions replace older ones
// for the same key without growing the buffer. Overflow drops are
// counted — they widen the window read-repair must cover. A hint stays
// on the slot it was buffered for, current or retired; replayHints
// decides where it goes.
func (c *Cluster) addHint(slot *serverSlot, key string, value []byte, version uint64, del bool) {
	if c.opts.noHints {
		return
	}
	hb := &slot.hints
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if cur, ok := hb.hints[key]; ok {
		if cur.version >= version {
			return
		}
	} else if len(hb.hints) >= maxHintsPerReplica {
		c.hintOverflows.Add(1)
		hintOverflowsTotal.Inc()
		return
	}
	var cp []byte
	if !del {
		cp = append([]byte(nil), value...)
	}
	if hb.hints == nil {
		hb.hints = make(map[string]hint)
	}
	hb.hints[key] = hint{value: cp, version: version, del: del}
}

// removeHint retracts the hint for key at exactly version ver — a write
// that failed on every replica takes back what it buffered. A newer
// hint for the key (a later write) stays.
func (c *Cluster) removeHint(slot *serverSlot, key string, ver uint64) {
	hb := &slot.hints
	hb.mu.Lock()
	if h, ok := hb.hints[key]; ok && h.version == ver {
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
// under a topology newer than ours: that hint re-routes too. On a
// transport failure the unreplayed remainder is merged back (newer hints
// buffered meanwhile win) and the error returned.
func (c *Cluster) replayHints(slot *serverSlot, sc *serverConn) error {
	st := c.state.Load()
	shard := st.topo.ShardOfServer(slot.id)
	if sc == nil && shard >= 0 {
		return fmt.Errorf("netstore: no connection to server %d", slot.id)
	}
	hb := &slot.hints
	hb.mu.Lock()
	pending := hb.hints
	hb.hints = nil
	hb.mu.Unlock()
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
	rt := writeRoute{shard: shard, epoch: st.topo.Epoch()}
	for key, h := range pending {
		if st.topo.ShardOfKey(key) != shard {
			c.rerouteHint(st, key, h)
			delete(pending, key)
			continue
		}
		err := c.repairWrite(sc, key, h.value, h.version, h.del, rt)
		if errors.As(err, new(*NotOwnerError)) {
			c.rerouteHint(freshState(), key, h)
			delete(pending, key)
			continue
		}
		if err != nil {
			hb.mu.Lock()
			if hb.hints == nil {
				hb.hints = make(map[string]hint)
			}
			for k, ph := range pending {
				if cur, ok := hb.hints[k]; !ok || cur.version < ph.version {
					hb.hints[k] = ph
				}
			}
			hb.mu.Unlock()
			return err
		}
		delete(pending, key)
	}
	return nil
}

// rerouteHint forwards a hint whose key no longer belongs to the server
// it was buffered for onto the key's current owner replicas. Versioned
// writes make the forward idempotent; replicas that are down or fail —
// including a NotOwner, which means the topology moved AGAIN between
// the caller's refresh and this forward — get the hint re-buffered
// under their own slot, so the data keeps chasing its owner across
// epochs (each prober pass re-resolves ownership afresh) instead of
// vanishing.
func (c *Cluster) rerouteHint(st *topoState, key string, h hint) {
	shard := st.topo.ShardOfKey(key)
	rt := writeRoute{shard: shard, epoch: st.topo.Epoch()}
	for r := 0; r < st.topo.Replicas(); r++ {
		owner := st.slotOf(shard, r)
		osc := owner.conn.Load()
		if osc == nil || owner.down.Load() {
			c.addHint(owner, key, h.value, h.version, h.del)
			continue
		}
		if err := c.repairWrite(osc, key, h.value, h.version, h.del, rt); err != nil {
			c.addHint(owner, key, h.value, h.version, h.del)
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
			// buffer a hint for a replica that is already back up.
			_ = c.replayHints(slot, slot.conn.Load())
		}
	}
}

// tryRevive redials one down server, verifies it serves with a ping,
// replays its hinted writes, and only then swaps the fresh connection in
// and clears the down mark — reads never hit a revived replica this
// client hasn't caught up yet.
func (c *Cluster) tryRevive(st *topoState, slot *serverSlot) {
	sc, err := dialServer(slot.addr)
	if err != nil {
		return
	}
	// The ping and the replay are one exchange bounded by
	// clientDialTimeout: a server that accepts TCP but does not speak the
	// protocol is not revived, and a replica that answers the ping but
	// never acks a write must not wedge the (single) prober goroutine. On
	// expiry the revival is abandoned and the unreplayed remainder
	// re-buffers; already-replayed hints are gone from the snapshot, so
	// retries make progress even through a huge buffer.
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

// scheduleRepair queues a background read-repair of key after a batch
// response revealed replica staleRep of shard serving it stale. At most
// one repair per key is in flight; beyond maxConcurrentRepairs the
// observation is dropped (the next read re-triggers it).
func (c *Cluster) scheduleRepair(shard, staleRep int, key string) {
	if _, dup := c.repairing.LoadOrStore(key, struct{}{}); dup {
		return
	}
	select {
	case c.repairSem <- struct{}{}:
	default:
		c.repairing.Delete(key)
		return
	}
	// The closed check and the Add share a mutex with Close's barrier:
	// otherwise an Add could race Close's repairWG.Wait (documented
	// WaitGroup misuse) and a repair goroutine could outlive Close.
	c.repairMu.Lock()
	if c.closed.Load() {
		c.repairMu.Unlock()
		<-c.repairSem
		c.repairing.Delete(key)
		return
	}
	c.repairWG.Add(1)
	c.repairMu.Unlock()
	go func() {
		defer func() {
			<-c.repairSem
			c.repairing.Delete(key)
			c.repairWG.Done()
		}()
		c.repairKey(shard, staleRep, key)
	}()
}

// repairKey reads key from the other live replicas of its shard, takes
// the freshest copy (value or tombstone), and pushes it to the stale
// replica with its original version — the server's last-writer-wins
// check makes a racing newer write safe. It re-resolves the topology at
// run time: if a rebalance moved the key or removed the shard since the
// stale read, the repair is moot and aborts.
func (c *Cluster) repairKey(shard, staleRep int, key string) {
	st := c.state.Load()
	if !st.topo.HasShard(shard) || st.topo.ShardOfKey(key) != shard {
		return
	}
	rt := writeRoute{shard: shard, epoch: st.topo.Epoch()}
	var bestVal []byte
	var bestVer uint64
	bestDel := false
	for r := 0; r < st.topo.Replicas(); r++ {
		if r == staleRep {
			continue
		}
		slot := st.slotOf(shard, r)
		sc := slot.conn.Load()
		if sc == nil || slot.down.Load() {
			continue
		}
		rctx, cancel := c.repairCtx()
		resp, err := sc.batch(rctx, &wire.BatchReq{
			Shard:    uint32(shard),
			Replica:  uint32(r),
			Epoch:    st.topo.Epoch(),
			Priority: []int64{0},
			Keys:     []string{key},
		})
		cancel()
		if err != nil || resp.Misrouted() || len(resp.Values) != 1 || len(resp.Versions) != 1 {
			continue
		}
		if resp.Stray != nil && resp.Stray[0] {
			// The key moved off this shard entirely; nothing to repair.
			return
		}
		if resp.Versions[0] > bestVer {
			bestVer = resp.Versions[0]
			bestVal = resp.Values[0]
			bestDel = !resp.Found[0] // version without a value = tombstone
		}
	}
	if bestVer == 0 {
		return
	}
	staleSlot := st.slotOf(shard, staleRep)
	sc := staleSlot.conn.Load()
	if sc == nil || staleSlot.down.Load() {
		return
	}
	_ = c.repairWrite(sc, key, bestVal, bestVer, bestDel, rt)
}

// ScanVersions dials one server directly (bypassing replica selection)
// and reads the stored versions of keys from it, bounded by ctx and
// timeout (earliest wins). Operations and fault-injection tooling
// (`brb-load -kill-replica`) use it to check that the replicas of a
// shard have version-converged after recovery; shard is the server's
// shard group (shard-checking servers reject mismatches, and
// topology-holding servers reject keys they do not own — scan only keys
// the target owns).
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
