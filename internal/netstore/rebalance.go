package netstore

// Live shard rebalancing: the controller-side orchestration that grows
// or shrinks an epoch-versioned cluster under traffic, without a
// stop-the-world.
//
// The safety argument leans entirely on versioned, idempotent writes
// (PR 3): every migrated entry is replayed onto its new owner with its
// ORIGINAL version via SetVersion/DeleteVersion, so copies can race
// client writes, repeat, or arrive out of order and the
// last-writer-wins check resolves them correctly. Receivers accept the
// stream even before they hold the new topology, because servers apply
// versioned writes stamped with an epoch NEWER than their own (see
// Server.ownsKey). That reduces live migration to an ordering problem:
//
//  1. Compute next = cur.AddShard(...)/RemoveShard(...) (epoch+1).
//  2. Copy pass: stream every donor replica's store (tombstones too) via
//     Scan pages, keep the max-version copy of each moving key, and
//     replay it onto all replicas of its new owner — stamped with
//     next's epoch, which the receivers honor whatever topology they
//     hold. No server advertises the new epoch yet, so clients keep
//     reading moved keys from the donors, where the data still is: a
//     drained shard's keys never pass through a window where their
//     advertised owner is empty.
//  3. Push next to the receivers, then to every other server including
//     retiring donors. Once a donor holds next it rejects reads/writes
//     of moved keys (stray/NotOwner), so clients refresh and re-route;
//     no new write for a moved key can land on a donor.
//  4. Catch-up pass: re-scan the donors (their moved-key set is now
//     frozen) and replay anything the first pass missed — writes that
//     raced step 2. After this pass the new owners hold every
//     acknowledged write; the donors' leftover copies are unreachable
//     garbage (servers reject stray reads) that future compaction can
//     drop.
//
// Clients need no coordination: a stray/NotOwner rejection tells them
// to refresh, and the rejecting server is — by construction — already
// able to name a newer epoch.

import (
	"context"
	"fmt"
	"time"

	"github.com/brb-repro/brb/internal/cluster"
	"github.com/brb-repro/brb/internal/wire"
)

// RebalanceOptions tune a rebalance run. Every exchange with a server
// is bounded by clientDialTimeout as well as by the caller's ctx.
type RebalanceOptions struct {
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// migrationWindow is how many migration writes ride the wire before the
// stream waits for their acknowledgments — simple pipelining, bounded
// memory.
const migrationWindow = 128

func (o RebalanceOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// AddShard grows the cluster by one shard under live traffic: newAddrs
// (one per replica) must already be serving empty shard-checking
// servers for shard cur.NextShardID(). It returns the installed
// topology (epoch cur+1) once migration has converged. Cancelling ctx
// aborts the migration between pages/windows (safe at any point:
// everything replayed so far is versioned and idempotent, and no epoch
// was published unless the copy pass completed).
func AddShard(ctx context.Context, cur *cluster.ShardTopology, newAddrs []string, opts RebalanceOptions) (*cluster.ShardTopology, error) {
	next, err := cur.AddShard(newAddrs...)
	if err != nil {
		return nil, err
	}
	newID := cur.NextShardID()
	receivers := next.ReplicaServers(newID)
	donors := cur.ShardIDs()
	opts.logf("rebalance: adding shard %d (epoch %d → %d), receivers %v", newID, cur.Epoch(), next.Epoch(), newAddrs)
	if err := migrate(ctx, cur, next, donors, receivers, opts); err != nil {
		return nil, fmt.Errorf("netstore: add shard %d: %w", newID, err)
	}
	return next, nil
}

// RemoveShard drains one shard out of the cluster under live traffic:
// its keys migrate to the surviving shards' existing arcs, then the
// shard's servers are dropped from the topology. The servers themselves
// keep running (they reject everything once they hold the new topology)
// and can be decommissioned at leisure.
func RemoveShard(ctx context.Context, cur *cluster.ShardTopology, shardID int, opts RebalanceOptions) (*cluster.ShardTopology, error) {
	next, err := cur.RemoveShard(shardID)
	if err != nil {
		return nil, err
	}
	var receivers []int
	for _, sh := range next.ShardIDs() {
		receivers = append(receivers, next.ReplicaServers(sh)...)
	}
	donors := []int{shardID}
	opts.logf("rebalance: removing shard %d (epoch %d → %d)", shardID, cur.Epoch(), next.Epoch())
	if err := migrate(ctx, cur, next, donors, receivers, opts); err != nil {
		return nil, fmt.Errorf("netstore: remove shard %d: %w", shardID, err)
	}
	return next, nil
}

// migrate runs the ordered copy/push/catch-up protocol described in the
// package comment. donors are shard IDs of cur whose keys may move;
// receivers are server IDs of next that take them in.
func migrate(ctx context.Context, cur, next *cluster.ShardTopology, donors []int, receivers []int, opts RebalanceOptions) error {
	// Step 2: copy pass, before any server advertises the new epoch —
	// receivers accept the next-epoch-stamped stream regardless of the
	// topology they hold, and clients keep reading moved keys from the
	// donors throughout.
	moved, err := copyMoved(ctx, cur, next, donors, opts)
	if err != nil {
		return fmt.Errorf("copy pass: %w", err)
	}
	opts.logf("rebalance: copy pass moved %d keys", moved)
	if err := ctx.Err(); err != nil {
		// Abort BEFORE publishing the epoch: nothing observed the new
		// topology yet, so the cancelled migration leaves the cluster
		// exactly as it was (the copied entries are harmless duplicates).
		return err
	}
	// Step 3: publish the new epoch — receivers first (they hold the
	// data now), then everyone else.
	pushed := map[int]bool{}
	for _, sid := range receivers {
		if err := pushTopologyTo(ctx, next.Addr(sid), next); err != nil {
			return fmt.Errorf("push topology to receiver %d (%s): %w", sid, next.Addr(sid), err)
		}
		pushed[sid] = true
	}
	for _, sid := range next.Servers() {
		if pushed[sid] {
			continue
		}
		if err := pushTopologyTo(ctx, next.Addr(sid), next); err != nil {
			return fmt.Errorf("push topology to %d (%s): %w", sid, next.Addr(sid), err)
		}
		pushed[sid] = true
	}
	// Servers leaving the topology (RemoveShard donors) get it too, so
	// they start rejecting everything instead of serving stale data.
	for _, d := range donors {
		if !next.HasShard(d) {
			for _, sid := range cur.ReplicaServers(d) {
				if err := pushTopologyTo(ctx, cur.Addr(sid), next); err != nil {
					return fmt.Errorf("push topology to retiring %d (%s): %w", sid, cur.Addr(sid), err)
				}
			}
		}
	}
	// Step 4: catch-up pass over the now-frozen donors.
	caught, err := copyMoved(ctx, cur, next, donors, opts)
	if err != nil {
		return fmt.Errorf("catch-up pass: %w", err)
	}
	opts.logf("rebalance: catch-up pass replayed %d keys", caught)
	return nil
}

// copyMoved streams every donor replica's store and replays the
// max-version copy of each key whose owner changes between cur and next
// onto all replicas of its new owner. Returns the number of keys
// replayed. Unreachable donor replicas are skipped: writes they alone
// acknowledged (1-ack writes during an outage) are not scannable here,
// but the clients that wrote them hold them as hints for the replicas
// that missed them, and the hint-replay path forwards NotOwner-rejected
// hints to the key's new owner, so the data still converges. An
// unreachable RECEIVER is an error — migration must not silently
// under-replicate the new owner.
func copyMoved(ctx context.Context, cur, next *cluster.ShardTopology, donors []int, opts RebalanceOptions) (int, error) {
	// Gather max-version copies of moving keys, donor shard by donor
	// shard. Held in memory: migration moves ~1/(shards+1) of the
	// keyspace; for stores too large for that, page the donor scans per
	// kv-shard (the Scan cursor already supports it) and flush per page.
	byOwner := make(map[int]latest)
	for _, d := range donors {
		reachable := 0
		for _, sid := range cur.ReplicaServers(d) {
			addr := cur.Addr(sid)
			err := scanAll(ctx, addr, func(key string, val []byte, ver uint64, dead bool) {
				owner := next.ShardOfKey(key)
				if owner == d && next.HasShard(d) {
					return // not moving
				}
				if cur.ShardOfKey(key) != d {
					// A leftover from an earlier migration this server was
					// a donor in: unreachable garbage, not this run's data.
					return
				}
				m := byOwner[owner]
				if m == nil {
					m = make(latest)
					byOwner[owner] = m
				}
				m.keep(key, versioned{val, ver, dead})
			})
			if err != nil {
				if ctx.Err() != nil {
					// A cancelled scan is abort, not an unreachable donor.
					return 0, ctx.Err()
				}
				opts.logf("rebalance: donor %d replica %s unreachable, relying on siblings: %v", d, addr, err)
				continue
			}
			reachable++
		}
		if reachable == 0 {
			return 0, fmt.Errorf("no reachable replica of donor shard %d", d)
		}
	}
	// Replay onto every replica of each new owner.
	total := 0
	for owner, entries := range byOwner {
		if len(entries) == 0 {
			continue
		}
		for _, sid := range next.ReplicaServers(owner) {
			if err := replayEntries(ctx, next.Addr(sid), next.Epoch(), entries); err != nil {
				return total, fmt.Errorf("replay %d keys to shard %d server %s: %w", len(entries), owner, next.Addr(sid), err)
			}
		}
		total += len(entries)
	}
	return total, nil
}

// FetchTopology asks one server for its current topology (nil if the
// server holds none), bounded by ctx and clientDialTimeout (earliest
// wins).
func FetchTopology(ctx context.Context, addr string) (*cluster.ShardTopology, error) {
	sc, err := dialServer(addr)
	if err != nil {
		return nil, err
	}
	defer sc.close()
	ctx, cancel := context.WithTimeout(ctx, clientDialTimeout)
	defer cancel()
	tp, err := sc.topoGet(ctx)
	if err != nil {
		return nil, err
	}
	return topoFromWire(tp)
}

// PushTopology delivers a topology to every server it names (and only
// those; retiring servers of an old topology need pushTopologyTo
// directly). Used to bootstrap a fresh cluster to epoch 1 before any
// epoch-versioned client traffic.
func PushTopology(ctx context.Context, t *cluster.ShardTopology) error {
	for _, sid := range t.Servers() {
		if err := pushTopologyTo(ctx, t.Addr(sid), t); err != nil {
			return fmt.Errorf("netstore: push topology to server %d (%s): %w", sid, t.Addr(sid), err)
		}
	}
	return nil
}

// pushTopologyTo installs t on one server and confirms the server now
// reports an epoch at least t's. A transient dial failure is retried a
// few times: with durable replicas, a server can be mid-restart (crash
// recovery replaying its WAL) exactly when a migration wants to push
// the new epoch, and failing the whole migration for a replica that is
// seconds from serving again would make crash-during-rebalance far
// more disruptive than the crash itself. A server that stays down past
// the retries still fails the push — epoch publication must not
// silently skip a live server.
func pushTopologyTo(ctx context.Context, addr string, t *cluster.ShardTopology) error {
	if addr == "" {
		return fmt.Errorf("no address bound")
	}
	sc, err := dialServer(addr)
	for attempt := 0; err != nil && attempt < 3; attempt++ {
		if !sleepCtx(ctx, 100*time.Millisecond) {
			return ctx.Err()
		}
		sc, err = dialServer(addr)
	}
	if err != nil {
		return err
	}
	defer sc.close()
	ctx, cancel := context.WithTimeout(ctx, clientDialTimeout)
	defer cancel()
	// The server answers a push with the topology it holds afterwards.
	tp, err := replyAs[*wire.Topo](sc.call(ctx, topoToWire(t, 0), "topology push"))
	if err != nil {
		return err
	}
	if tp.Epoch < t.Epoch() {
		return fmt.Errorf("server kept epoch %d after push of %d", tp.Epoch, t.Epoch())
	}
	return nil
}

// scanAll streams every entry of one server's store through fn, page by
// page, each page bounded by clientDialTimeout: the cursor walks the
// internal kv shards, and a size-bounded shard continues within one
// cursor via the After key (a response echoing the same cursor names
// its last key as the resume point).
func scanAll(ctx context.Context, addr string, fn func(key string, val []byte, ver uint64, dead bool)) error {
	sc, err := dialServer(addr)
	if err != nil {
		return err
	}
	defer sc.close()
	cursor, after := uint32(0), ""
	for {
		pctx, cancel := context.WithTimeout(ctx, clientDialTimeout)
		sr, err := replyAs[*wire.ScanResp](sc.call(pctx, &wire.Scan{Cursor: cursor, After: after}, "scan"))
		cancel()
		if err != nil {
			return err
		}
		for i, k := range sr.Keys {
			fn(k, sr.Values[i], sr.Versions[i], sr.Dead[i])
		}
		switch {
		case sr.NextCursor == wire.ScanDone:
			return nil
		case sr.NextCursor == cursor:
			if len(sr.Keys) == 0 {
				return fmt.Errorf("scan of %s made no progress at cursor %d", addr, cursor)
			}
			after = sr.Keys[len(sr.Keys)-1]
		default:
			cursor, after = sr.NextCursor, ""
		}
	}
}

// replayEntries pushes entries onto one receiving server with their
// original versions (idempotent), one window of migrationWindow writes
// at a time: a window's writes all go out before its acks are awaited,
// and each window is one exchange bounded by clientDialTimeout.
func replayEntries(ctx context.Context, addr string, epoch uint64, entries latest) error {
	sc, err := dialServer(addr)
	if err != nil {
		return err
	}
	defer sc.close()
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	ids := make([]uint64, migrationWindow)
	acks := make([]chan wire.Message, migrationWindow)
	for len(keys) > 0 {
		window := keys[:min(len(keys), migrationWindow)]
		keys = keys[len(window):]
		if err := sc.within(ctx, func(ctx context.Context) error {
			for i, key := range window {
				var err error
				if ids[i], acks[i], err = sc.start(ctx, writeReq(key, entries[key], epoch), "migration write"); err != nil {
					return err
				}
			}
			for i := range window {
				// A NotOwner here means the receiver refuses a key migration
				// says it owns: the topologies disagree, so stop rather than
				// lose data silently.
				if err := ackOf(sc.wait(ctx, ids[i], acks[i], "migration write")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}
