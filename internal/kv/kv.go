// Package kv is the in-memory key-value engine behind the networked BRB
// store (internal/netstore): a sharded, mutex-striped map with value-size
// metadata, so clients and servers can forecast service costs from sizes
// the way BRB's cost model assumes ("based on the size of the value they
// are requesting").
//
// Every key carries a write version. Local writers (Set/Delete) advance
// it monotonically; replicated writers (SetVersion/DeleteVersion) supply
// the version, and the store applies the write only if it is newer than
// what it holds — last-writer-wins, which makes the cluster client's
// hint replays and catch-up copies idempotent. Versioned
// deletes leave tombstones so a replayed older write cannot resurrect a
// deleted key.
package kv

import (
	"hash/fnv"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/metrics"
)

const defaultShards = 64

// Store is a sharded in-memory key-value store, safe for concurrent use.
type Store struct {
	shards []shard

	// Tombstone GC state (StartTombstoneGC); gcMu orders starts against
	// Stop so a late Start cannot race Stop's Wait and a double Stop
	// cannot double-close. It also guards purgeHook.
	gcMu      sync.Mutex
	gcStop    chan struct{}
	gcStopped bool
	gcWG      sync.WaitGroup

	// purgeHook, when set (by the Durable wrapper), observes every
	// tombstone the GC sweep drops, so the sweep can be replayed: a WAL
	// replay that remembers a delete the live store had forgotten would
	// resolve later last-writer-wins checks differently than the live
	// store did.
	purgeHook func(key string, ver uint64)
}

type shard struct {
	mu sync.RWMutex
	m  map[string]entry
}

// entry is one key's state: the value, its write version, and whether
// the latest versioned write was a delete (tombstone). Tombstones keep
// the version so late-arriving older Sets lose; they are invisible to
// Get/Len/Keys. deadAt records when the tombstone was laid, so the GC
// sweep can age it out.
type entry struct {
	val    []byte
	ver    uint64
	dead   bool
	deadAt int64 // unix nanos of the tombstoning, 0 for live entries
}

// New returns a store with the given shard count (0 = 64). More shards
// reduce lock contention under concurrent goroutines.
func New(shards int) *Store {
	if shards <= 0 {
		shards = defaultShards
	}
	s := &Store{shards: make([]shard, shards)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]entry)
	}
	return s
}

func (s *Store) shardOf(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return &s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Set stores a copy of value under key, advancing the key's version by
// one (local, unreplicated write). It returns the version it assigned,
// so a durability layer can log the write as the versioned mutation it
// became.
func (s *Store) Set(key string, value []byte) uint64 {
	cp := make([]byte, len(value))
	copy(cp, value)
	sh := s.shardOf(key)
	sh.mu.Lock()
	ver := sh.m[key].ver + 1
	sh.m[key] = entry{val: cp, ver: ver}
	sh.mu.Unlock()
	return ver
}

// SetVersion stores a copy of value under key at the given version if it
// is newer than the stored one (including a tombstone's), reporting
// whether the write applied. Equal or older versions are dropped, which
// makes replaying a write idempotent.
func (s *Store) SetVersion(key string, value []byte, ver uint64) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur.ver >= ver {
		sh.mu.Unlock()
		return false
	}
	cp := make([]byte, len(value))
	copy(cp, value)
	sh.m[key] = entry{val: cp, ver: ver}
	sh.mu.Unlock()
	return true
}

// Get returns the value for key. The returned slice must not be modified.
func (s *Store) Get(key string) ([]byte, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if e.dead {
		return nil, false
	}
	return e.val, ok
}

// GetVersion returns the value and write version for key. Tombstoned
// keys read as missing but keep reporting their delete version, so a
// replica scan can tell "never had it" (version 0) from "deleted at v".
func (s *Store) GetVersion(key string) ([]byte, uint64, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if e.dead {
		return nil, e.ver, false
	}
	if !ok {
		return nil, 0, false
	}
	return e.val, e.ver, true
}

// SizeOf returns the stored value's size without copying it — the cheap
// metadata lookup cost estimation uses.
func (s *Store) SizeOf(key string) (int64, bool) {
	sh := s.shardOf(key)
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if e.dead {
		return 0, false
	}
	return int64(len(e.val)), ok
}

// Delete removes key outright (local, unreplicated delete — no
// tombstone). Deleting a missing key is a no-op.
func (s *Store) Delete(key string) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// DeleteVersion tombstones key at the given version if it is newer than
// the stored one, reporting whether the delete applied. The tombstone
// pins the version so an older replayed Set cannot resurrect the key.
func (s *Store) DeleteVersion(key string, ver uint64) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur.ver >= ver {
		sh.mu.Unlock()
		return false
	}
	sh.m[key] = entry{ver: ver, dead: true, deadAt: time.Now().UnixNano()}
	sh.mu.Unlock()
	return true
}

// restoreEntry applies one snapshot entry if it is newer than the stored
// one — the same last-writer-wins rule as SetVersion/DeleteVersion, with
// tombstones allowed. A restored tombstone's deadAt is the load time, so
// its GC clock restarts: aging out late is safe, early is not.
func (s *Store) restoreEntry(key string, val []byte, ver uint64, dead bool) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur.ver >= ver {
		sh.mu.Unlock()
		return
	}
	if dead {
		sh.m[key] = entry{ver: ver, dead: true, deadAt: time.Now().UnixNano()}
	} else {
		cp := make([]byte, len(val))
		copy(cp, val)
		sh.m[key] = entry{val: cp, ver: ver}
	}
	sh.mu.Unlock()
}

// purgeTombstone forgets key's tombstone iff it is still the tombstone
// laid at exactly ver — replaying a GC sweep record. A newer write
// (live or tombstone) means the purge is stale and must not apply.
func (s *Store) purgeTombstone(key string, ver uint64) {
	sh := s.shardOf(key)
	sh.mu.Lock()
	if cur, ok := sh.m[key]; ok && cur.dead && cur.ver == ver {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
}

// setPurgeHook installs fn to observe GC-swept tombstones (Durable's
// WAL hook). Pass nil to detach.
func (s *Store) setPurgeHook(fn func(key string, ver uint64)) {
	s.gcMu.Lock()
	s.purgeHook = fn
	s.gcMu.Unlock()
}

// Len returns the total number of live (non-tombstoned) keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for _, e := range s.shards[i].m {
			if !e.dead {
				n++
			}
		}
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Keys calls fn for every live key until fn returns false. Iteration
// order is unspecified; concurrent mutations may or may not be observed.
func (s *Store) Keys(fn func(key string) bool) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for k, e := range s.shards[i].m {
			if e.dead {
				continue
			}
			if !fn(k) {
				s.shards[i].mu.RUnlock()
				return
			}
		}
		s.shards[i].mu.RUnlock()
	}
}

// NumShards returns the store's internal shard count — the cursor space
// of ScanShard.
func (s *Store) NumShards() int { return len(s.shards) }

// ScanShard calls fn for every entry of internal shard i — live entries
// AND tombstones (dead=true, val=nil), since a migration stream must
// carry deletes or a moved key could resurrect on its new owner. fn runs
// under the shard's read lock: it must be fast and must not call back
// into the store. Returned values alias stored slices and must not be
// modified; they remain valid after the scan (the store never mutates a
// stored value in place). Iterating shard by shard gives a natural
// paging unit: one ScanShard is ~1/NumShards of the keyspace.
func (s *Store) ScanShard(i int, fn func(key string, val []byte, ver uint64, dead bool) bool) {
	if i < 0 || i >= len(s.shards) {
		return
	}
	sh := &s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for k, e := range sh.m {
		if !fn(k, e.val, e.ver, e.dead) {
			return
		}
	}
}

// TombstoneCount returns the number of tombstoned entries (operations
// and test hook).
func (s *Store) TombstoneCount() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for _, e := range s.shards[i].m {
			if e.dead {
				n++
			}
		}
		s.shards[i].mu.RUnlock()
	}
	return n
}

var tombstonesSwept = metrics.GetCounter("kv_tombstones_swept_total")

// StartTombstoneGC begins a bounded periodic sweep that drops tombstones
// older than horizon: every interval, ONE internal shard is swept (round
// robin), so a tick's work is ~1/NumShards of the keyspace and a full
// pass takes NumShards intervals. It returns a stop function (idempotent;
// Stop also runs it).
//
// Dropping a tombstone forgets the delete's version, so a versioned
// write older than the delete that replays AFTER the sweep could
// resurrect the key. The horizon must therefore exceed the longest
// plausible replay delay (a replica's outage until its revival replays
// hints or catches it up from its siblings);
// hours in production, milliseconds only in tests.
func (s *Store) StartTombstoneGC(horizon, interval time.Duration) (stop func()) {
	if horizon <= 0 || interval <= 0 {
		return func() {}
	}
	stopCh := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(stopCh) }) }
	s.gcMu.Lock()
	if s.gcStopped {
		s.gcMu.Unlock()
		return func() {}
	}
	if s.gcStop == nil {
		s.gcStop = make(chan struct{})
	}
	s.gcWG.Add(1)
	globalStop := s.gcStop
	s.gcMu.Unlock()
	go func() {
		defer s.gcWG.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		cursor := 0
		for {
			select {
			case <-stopCh:
				return
			case <-globalStop:
				return
			case <-ticker.C:
			}
			s.sweepShard(cursor, time.Now().Add(-horizon).UnixNano())
			cursor = (cursor + 1) % len(s.shards)
		}
	}()
	return stop
}

// Stop terminates every sweeper started by StartTombstoneGC and waits
// for them. Safe to call with none running, concurrently, and more
// than once; Starts after Stop are no-ops.
func (s *Store) Stop() {
	s.gcMu.Lock()
	if !s.gcStopped {
		s.gcStopped = true
		if s.gcStop != nil {
			close(s.gcStop)
		}
	}
	s.gcMu.Unlock()
	s.gcWG.Wait()
}

// sweepShard drops every tombstone in internal shard i laid before
// cutoff (unix nanos). Swept tombstones are reported to the purge hook
// (outside the shard lock) so a durability layer can log the sweep.
func (s *Store) sweepShard(i int, cutoff int64) {
	if i < 0 || i >= len(s.shards) {
		return
	}
	sh := &s.shards[i]
	type sweptKey struct {
		key string
		ver uint64
	}
	var swept []sweptKey
	sh.mu.Lock()
	for k, e := range sh.m {
		if e.dead && e.deadAt < cutoff {
			delete(sh.m, k)
			swept = append(swept, sweptKey{k, e.ver})
		}
	}
	sh.mu.Unlock()
	if len(swept) == 0 {
		return
	}
	tombstonesSwept.Add(uint64(len(swept)))
	s.gcMu.Lock()
	hook := s.purgeHook
	s.gcMu.Unlock()
	if hook != nil {
		for _, sk := range swept {
			hook(sk.key, sk.ver)
		}
	}
}

// ClampGCHorizon raises a tombstone-GC horizon to at least the snapshot
// interval. A durable store must not age a tombstone out of memory
// before a snapshot has had a chance to capture the state that made it
// obsolete: with horizon < snapInterval, a sweep between two snapshots
// could forget a delete that the next boot's snapshot+WAL replay still
// remembers, and the replayed store would then reject a write the live
// store had accepted. (Purge records close the same gap from the other
// side; the clamp keeps the common path from depending on them alone.)
func ClampGCHorizon(horizon, snapInterval time.Duration) time.Duration {
	if horizon > 0 && snapInterval > horizon {
		return snapInterval
	}
	return horizon
}
