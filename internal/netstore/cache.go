package netstore

// The versioned hot-key client cache: the caching half of the latency
// toolkit (hedging cuts the tail of the reads we must send; the cache
// removes the hottest reads from the wire entirely).
//
// Safety comes from write versions, not leases. Every cached entry
// carries the LWW version the value was read at, and three rules keep
// a cache hit from ever serving a value older than a write this client
// has had acknowledged:
//
//  1. Local invalidation: an acknowledged Set/Delete drops the key's
//     entry (and raises the written-version floor first).
//  2. The written floor: a hit is served only if its version is at
//     least the version this client last wrote for the key — so a fill
//     racing a concurrent write can park a stale entry, but never serve
//     it.
//  3. Opportunistic validation: any response carrying versions (hedge
//     losers included) evicts entries it proves stale, and a topology
//     epoch change purges everything (ownership moved; the entries'
//     provenance is void).
//
// Staleness against OTHER clients' writes is bounded only by eviction
// and validation — the same regime as any TTL-free read cache over an
// eventually-consistent store; the paper's target workloads (read-heavy
// cache tiers) are exactly where that trade is taken.
//
// What the cache saves is the share of the read popularity mass its
// resident set holds, so residency is earned: the LRU is fronted by a
// TinyLFU admission filter (Einziger et al.). Every lookup is counted
// in a small frequency sketch, and once the cache is full a key that is
// not yet resident is admitted only if the sketch ranks it strictly
// above the LRU tail it would evict. A sweep over cold keys is counted
// and refused instead of flushing the hot set. Admission decides only
// WHICH read results are parked; the three rules above govern every
// entry that is, so the coherence argument does not depend on it.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/brb-repro/brb/internal/wire"
)

// hotKeyCache is a bounded, admission-filtered LRU of versioned values.
// Like the server's scan-page and scheduler heaps, the LRU list is
// hand-rolled (map + intrusive doubly-linked list) so steady-state hits
// cost zero allocations beyond the served copy.
type hotKeyCache struct {
	mu         sync.Mutex
	capacity   int
	ents       map[string]*cacheEnt
	head, tail *cacheEnt // head = most recently used
	sketch     freqSketch

	hits, misses, fills, invals, evicts, rejects atomic.Uint64
}

type cacheEnt struct {
	key string
	// val is immutable: a refresh replaces the slice, and no []byte
	// reachable from an entry is ever written again. That is what lets
	// serve copy a hit's value after dropping hc.mu.
	val        []byte
	version    uint64
	prev, next *cacheEnt
}

func newHotKeyCache(capacity int) *hotKeyCache {
	return &hotKeyCache{
		capacity: capacity,
		ents:     make(map[string]*cacheEnt, capacity),
		sketch:   newFreqSketch(capacity),
	}
}

// serve answers what it can of keys from the cache under ONE lock hold:
// for each hit i it sets found[i] and vals[i] (the caller's own copy —
// result slices may be mutated) and it returns the number of hits.
// found must arrive all false. floor gives the caller's written-version
// floor for a key: an entry older than a write this client has had
// acknowledged is dropped and reported as a miss — rule 2 above. floor
// runs with hc.mu held, so it must neither block nor call back into
// the cache. Every key looked up, hit or miss, is counted in the
// admission sketch.
func (hc *hotKeyCache) serve(keys []string, floor func(string) uint64, vals [][]byte, found []bool) int {
	hits, dropped := 0, 0
	hc.mu.Lock()
	for i, k := range keys {
		hc.sketch.touch(keyHash(k))
		e := hc.ents[k]
		if e == nil {
			continue
		}
		if e.version < floor(k) {
			hc.removeLocked(e)
			dropped++
			continue
		}
		hc.moveFrontLocked(e)
		vals[i], found[i] = e.val, true
		hits++
	}
	hc.mu.Unlock()
	if hits > 0 {
		for i, ok := range found {
			if ok {
				vals[i] = append([]byte(nil), vals[i]...)
			}
		}
		hc.hits.Add(uint64(hits))
	}
	if misses := len(keys) - hits; misses > 0 {
		hc.misses.Add(uint64(misses))
	}
	if dropped > 0 {
		hc.invals.Add(uint64(dropped))
	}
	return hits
}

// put offers one read result to the cache, copying the value if it is
// kept. Version 0 — an unversioned legacy response — is not cacheable:
// it could never be validated. For a resident key the higher version
// wins regardless of arrival order: an older fill loses, an equal one
// only renews the entry's recency, a newer one replaces value and
// version. A new key fills a free slot unconditionally; in a full cache
// it must beat the LRU tail in the admission sketch (strictly: a tie
// keeps the resident, so a run of once-read keys cannot churn the
// tail), and is otherwise counted as a reject and dropped.
func (hc *hotKeyCache) put(key string, val []byte, ver uint64) {
	if ver == 0 {
		return
	}
	filled, evicted, rejected := false, false, false
	hc.mu.Lock()
	if e := hc.ents[key]; e != nil {
		if ver >= e.version {
			hc.moveFrontLocked(e)
		}
		if ver > e.version {
			e.version = ver
			e.val = append([]byte(nil), val...)
			filled = true
		}
	} else {
		full := len(hc.ents) >= hc.capacity
		if full && hc.sketch.estimate(keyHash(key)) <= hc.sketch.estimate(keyHash(hc.tail.key)) {
			rejected = true
		} else {
			if full {
				hc.removeLocked(hc.tail)
				evicted = true
			}
			e := &cacheEnt{key: key, val: append([]byte(nil), val...), version: ver}
			hc.ents[key] = e
			hc.pushFrontLocked(e)
			filled = true
		}
	}
	hc.mu.Unlock()
	if filled {
		hc.fills.Add(1)
	}
	if evicted {
		hc.evicts.Add(1)
	}
	if rejected {
		hc.rejects.Add(1)
	}
}

// invalidate drops a key's entry (acknowledged local write/delete).
func (hc *hotKeyCache) invalidate(key string) {
	hc.mu.Lock()
	e := hc.ents[key]
	if e != nil {
		hc.removeLocked(e)
	}
	hc.mu.Unlock()
	if e != nil {
		hc.invals.Add(1)
	}
}

// noteVersion validates an entry against an authoritative version seen
// on the wire: proof of a newer write evicts the stale entry.
func (hc *hotKeyCache) noteVersion(key string, ver uint64) {
	hc.mu.Lock()
	e := hc.ents[key]
	stale := e != nil && e.version < ver
	if stale {
		hc.removeLocked(e)
	}
	hc.mu.Unlock()
	if stale {
		hc.invals.Add(1)
	}
}

// purge empties the cache (topology epoch change: ownership moved, so
// every entry's provenance is void).
func (hc *hotKeyCache) purge() {
	hc.mu.Lock()
	n := len(hc.ents)
	hc.ents = make(map[string]*cacheEnt, hc.capacity)
	hc.head, hc.tail = nil, nil
	hc.mu.Unlock()
	if n > 0 {
		hc.invals.Add(uint64(n))
	}
}

// size returns the current entry count (test hook).
func (hc *hotKeyCache) size() int {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	return len(hc.ents)
}

func (hc *hotKeyCache) pushFrontLocked(e *cacheEnt) {
	e.prev, e.next = nil, hc.head
	if hc.head != nil {
		hc.head.prev = e
	}
	hc.head = e
	if hc.tail == nil {
		hc.tail = e
	}
}

func (hc *hotKeyCache) removeLocked(e *cacheEnt) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		hc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		hc.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(hc.ents, e.key)
}

func (hc *hotKeyCache) moveFrontLocked(e *cacheEnt) {
	if hc.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		hc.tail = e.prev
	}
	e.prev, e.next = nil, hc.head
	if hc.head != nil {
		hc.head.prev = e
	}
	hc.head = e
}

// freqSketch is the admission filter's popularity estimate: a count-min
// sketch of 4-bit counters, sketchRows rows side by side in one slab,
// 16 counters to a word. It is allocated once, in newHotKeyCache, and
// its size depends on the capacity alone — never on how many distinct
// keys pass through.
type freqSketch struct {
	words   []uint64
	mask    uint64 // row width − 1; the width is a power of two
	touches int    // since the last aging pass
	period  int
}

const (
	// A key bumps one counter in each of sketchRows rows and its
	// estimate is the smallest of them, so a cold key is over-counted
	// only where it shares a counter with hotter keys in every row. One
	// 64-bit hash is cut into 16-bit row indexes, which is why 4.
	sketchRows = 4
	// Counters per cache slot, all rows together (≈: a row is rounded up
	// to a power of two). Each row is then at least twice the capacity
	// wide — the sketch has to tell the resident set from the keys
	// competing with it, not to count the keyspace — and the whole
	// sketch costs 4 bytes a slot, beside entries of up to 64 KiB.
	sketchSlotCounters = 8
	// Every sketchAgeTouches × capacity lookups all counters are halved,
	// so a key that stops being read loses its rank within a few periods
	// and yesterday's hot set cannot hold its slots against today's. Ten:
	// over one period a resident key is looked up about ten times on
	// average, which a 4-bit counter (0–15) resolves without saturating
	// more than the hottest few.
	sketchAgeTouches = 10
)

func newFreqSketch(capacity int) freqSketch {
	width := 16 // one word
	for width < sketchSlotCounters/sketchRows*capacity {
		width <<= 1
	}
	return freqSketch{
		words:  make([]uint64, sketchRows*width/16),
		mask:   uint64(width - 1),
		period: sketchAgeTouches * capacity,
	}
}

// counter locates row r's counter for hash h: its word and bit offset.
func (s *freqSketch) counter(h uint64, r int) (word *uint64, shift uint64) {
	c := uint64(r)*(s.mask+1) + bits.RotateLeft64(h, -16*r)&s.mask
	return &s.words[c>>4], c & 15 << 2
}

// touch counts one lookup of the key hashed to h and ages the sketch
// when the period is up.
func (s *freqSketch) touch(h uint64) {
	for r := 0; r < sketchRows; r++ {
		if w, sh := s.counter(h, r); *w>>sh&15 < 15 {
			*w += 1 << sh
		}
	}
	if s.touches++; s.touches >= s.period {
		s.touches = 0
		for i, w := range s.words {
			s.words[i] = w >> 1 & 0x7777777777777777
		}
	}
}

// estimate is the key's lookup count as far as the sketch knows it
// (0–15, aged).
func (s *freqSketch) estimate(h uint64) uint64 {
	est := uint64(15)
	for r := 0; r < sketchRows; r++ {
		w, sh := s.counter(h, r)
		est = min(est, *w>>sh&15)
	}
	return est
}

// keyHash is FNV-1a scrambled by the splitmix64 finalizer (FNV alone
// leaves the high bits of short keys too structured to cut row indexes
// from) — fixed, unseeded, so a replayed schedule meets the same sketch.
func keyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// writtenFloor is the version this client last had acknowledged for a
// key (0 if it never wrote the key) — the cache's serve floor.
func (c *Cluster) writtenFloor(key string) uint64 {
	if wv, ok := c.written.Load(key); ok {
		return wv.(uint64)
	}
	return 0
}

// cacheFill parks one read result in the cache unless it predates a
// write this client already had acknowledged (the get-side floor would
// drop it anyway; skipping the fill keeps the slot for something
// servable). Only called with c.cache non-nil.
func (c *Cluster) cacheFill(key string, val []byte, ver uint64) {
	if ver < c.writtenFloor(key) {
		return
	}
	c.cache.put(key, val, ver)
}

// noteResponseVersions validates cache entries against a batch
// response's versions — the opportunistic path fed by hedge losers
// (and, through them, any late answer that would otherwise be pure
// waste). Keys the server refused (stray) or shed (expired) carry no
// authoritative version and are skipped.
func (c *Cluster) noteResponseVersions(b shardBatch, resp *wire.BatchResp) {
	if c.cache == nil || len(resp.Versions) != len(b.keys) {
		return
	}
	for i, k := range b.keys {
		if resp.Stray != nil && resp.Stray[i] {
			continue
		}
		if resp.Expired != nil && resp.Expired[i] {
			continue
		}
		c.cache.noteVersion(k, resp.Versions[i])
	}
}

// CacheHits, CacheMisses, CacheInvalidations and CacheEvictions return
// the ClusterStats fields of the same names for bench/trace.go, their
// only caller; see HedgesFired.
func (c *Cluster) CacheHits() uint64          { return c.Stats().CacheHits }
func (c *Cluster) CacheMisses() uint64        { return c.Stats().CacheMisses }
func (c *Cluster) CacheInvalidations() uint64 { return c.Stats().CacheInvalidations }
func (c *Cluster) CacheEvictions() uint64     { return c.Stats().CacheEvictions }

// CacheSize returns the current cached entry count (0 when disabled).
func (c *Cluster) CacheSize() int {
	if c.cache == nil {
		return 0
	}
	return c.cache.size()
}
