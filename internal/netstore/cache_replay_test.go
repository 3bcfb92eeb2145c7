package netstore_test

// A deterministic replay of the benchmark's slo-straggler traffic
// through the hot-key cache alone: no servers, no sockets, no clock.
// It is the layer evidence for the admission policy — the overall hit
// ratio it computes is the number bench/'s traced runs report as
// netstore.cache.hit_frac (EXPERIMENTS.md records how close the two
// land) — and it runs in milliseconds, so a change to the policy can be
// judged before anyone pays for ten benchmark pairs.

import (
	"container/list"
	"fmt"
	"os"
	"sort"
	"testing"

	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
)

const (
	replayHandles   = 2   // bench/ dials min(NumCPU, 4) handles; the box it runs on has 2
	replayCacheSize = 256 // slo-straggler's cacheSize
	replaySeconds   = 20  // BENCHMARK.json run_seconds
	// bench/'s traced runs read the cache counters after this share of
	// the schedule has run (bench/run.go traceLeadIn); the replay counts
	// the same window, so its ratio is the traced hit_frac's twin.
	replayLeadIn = 0.25
)

// replayPolicy is one cache as the replay sees it: look a multiget's
// keys up, park a fetched key, drop a written key.
type replayPolicy interface {
	lookup(keys []int, found []bool)
	fill(key int)
	invalidate(key int)
}

// admitted is the cache under test, driven the way Cluster.Multiget
// drives it: one serve per multiget, one put per fetched key, versions
// from a per-key write counter and a written floor per handle.
type admitted struct {
	hc      netstore.HotKeyCache
	names   []string
	version []uint64 // shared by all handles: the store's LWW version per key
	written map[string]uint64
	keys    []string
	vals    [][]byte
}

func (a *admitted) lookup(keys []int, found []bool) {
	a.keys, a.vals = a.keys[:0], a.vals[:0]
	for _, k := range keys {
		a.keys = append(a.keys, a.names[k])
		a.vals = append(a.vals, nil)
	}
	a.hc.Serve(a.keys, func(k string) uint64 { return a.written[k] }, a.vals, found)
}
func (a *admitted) fill(key int) { a.hc.Put(a.names[key], []byte{1}, a.version[key]) }
func (a *admitted) invalidate(key int) {
	a.version[key]++ // the write itself
	a.written[a.names[key]] = a.version[key]
	a.hc.Invalidate(a.names[key])
}

// plainLRU is the policy this cache had before admission — every miss
// filled, the tail evicted — kept here as the reference the table
// compares against.
type plainLRU struct {
	capacity int
	order    *list.List // front = most recently used
	ents     map[int]*list.Element
}

func (l *plainLRU) lookup(keys []int, found []bool) {
	for i, k := range keys {
		if e := l.ents[k]; e != nil {
			l.order.MoveToFront(e)
			found[i] = true
		}
	}
}
func (l *plainLRU) fill(key int) {
	if e := l.ents[key]; e != nil {
		l.order.MoveToFront(e)
		return
	}
	l.ents[key] = l.order.PushFront(key)
	if l.order.Len() > l.capacity {
		delete(l.ents, l.order.Remove(l.order.Back()).(int))
	}
}
func (l *plainLRU) invalidate(key int) {
	if e := l.ents[key]; e != nil {
		l.order.Remove(e)
		delete(l.ents, key)
	}
}

// oracle holds the capacity keys its handle reads most over the whole
// schedule, from the first op to the last: what a policy with perfect
// foresight and no churn would keep.
type oracle struct{ resident map[int]bool }

func (o *oracle) lookup(keys []int, found []bool) {
	for i, k := range keys {
		found[i] = o.resident[k]
	}
}
func (o *oracle) fill(int)       {}
func (o *oracle) invalidate(int) {}

type replayTally struct{ keys, keyHits, multigets, socketFree int }

func (c replayTally) keyHit() float64 { return float64(c.keyHits) / float64(max(c.keys, 1)) }
func (c replayTally) free() float64   { return float64(c.socketFree) / float64(max(c.multigets, 1)) }

// sloStragglerOps is three-class.json at slo-straggler's shape: the
// rates an eighth of the file's (500 / 500 on-off / 100 ops/s) and the
// op counts stretched to the phase length. The benchmark builds its
// spec in Go (bench/workloads.go) with its own value sizes, so these
// are statistically its streams, not byte for byte.
func sloStragglerOps(t *testing.T, seed uint64) (*loadgen.Spec, []loadgen.Op) {
	t.Helper()
	data, err := os.ReadFile("../../cmd/brb-load/testdata/three-class.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadgen.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = seed
	for i := range spec.Clients {
		c := &spec.Clients[i]
		c.Arrival.Rate /= 8
		mean := c.Arrival.Rate
		if c.Arrival.Process == "onoff" {
			mean *= float64(c.Arrival.On) / float64(c.Arrival.On+c.Arrival.Off)
		}
		c.Ops = int(mean * replaySeconds)
	}
	ops, err := loadgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, ops
}

// replay runs the schedule in timestamp order through one cache per
// handle built by mk and tallies the reads past the lead-in per class
// ("" = all classes).
// Streams go to handles as bench/driver.go sends them: numbered in
// first-appearance order, stream s on handle s mod H. Before the first
// op every handle reads the whole keyspace once in 64-key multigets,
// as the benchmark's load step does.
func replay(spec *loadgen.Spec, ops []loadgen.Op, mk func(handle int) replayPolicy) map[string]*replayTally {
	type stream struct {
		client string
		worker int
	}
	handleOf := map[stream]int{}
	caches := make([]replayPolicy, replayHandles)
	read := func(c replayPolicy, keys []int) (hits int) {
		found := make([]bool, len(keys))
		c.lookup(keys, found)
		for i, k := range keys {
			if found[i] {
				hits++
			} else {
				c.fill(k)
			}
		}
		return hits
	}
	for h := range caches {
		caches[h] = mk(h)
		chunk := make([]int, 0, 64)
		for k := 0; k < spec.Keys; k++ {
			if chunk = append(chunk, k); len(chunk) == cap(chunk) || k == spec.Keys-1 {
				read(caches[h], chunk)
				chunk = chunk[:0]
			}
		}
	}
	tallies := map[string]*replayTally{"": {}}
	tallyFrom := int64(replayLeadIn * float64(ops[len(ops)-1].TS))
	for i := range ops {
		op := &ops[i]
		s := stream{op.Client, op.Worker}
		if _, ok := handleOf[s]; !ok {
			handleOf[s] = len(handleOf) % replayHandles
		}
		c := caches[handleOf[s]]
		if op.Kind != loadgen.OpGet {
			c.invalidate(op.Keys[0])
			continue
		}
		hits := read(c, op.Keys)
		if op.TS < tallyFrom {
			continue
		}
		if tallies[op.Class] == nil {
			tallies[op.Class] = &replayTally{}
		}
		for _, tl := range []*replayTally{tallies[""], tallies[op.Class]} {
			tl.keys += len(op.Keys)
			tl.keyHits += hits
			tl.multigets++
			if hits == len(op.Keys) {
				tl.socketFree++
			}
		}
	}
	return tallies
}

func TestCacheReplaySLOStraggler(t *testing.T) {
	spec, ops := sloStragglerOps(t, 3)
	names := make([]string, spec.Keys)
	for k := range names {
		names[k] = fmt.Sprintf("key:%d", k)
	}

	version := make([]uint64, spec.Keys)
	for k := range version {
		version[k] = 1
	}
	var hcs []netstore.HotKeyCache
	withAdmission := replay(spec, ops, func(int) replayPolicy {
		hc := netstore.NewHotKeyCache(replayCacheSize)
		hcs = append(hcs, hc)
		return &admitted{hc: hc, names: names, version: version, written: map[string]uint64{}}
	})

	lru := replay(spec, ops, func(int) replayPolicy {
		return &plainLRU{capacity: replayCacheSize, order: list.New(), ents: map[int]*list.Element{}}
	})

	// The oracle's resident sets need the stream → handle mapping too;
	// a counting pass through replay itself supplies it.
	reads := make([]map[int]int, replayHandles)
	replay(spec, ops, func(h int) replayPolicy {
		reads[h] = map[int]int{}
		return countingPolicy{reads[h]}
	})
	best := replay(spec, ops, func(h int) replayPolicy {
		ranked := make([]int, 0, len(reads[h]))
		for k := range reads[h] {
			ranked = append(ranked, k)
		}
		sort.Slice(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			return reads[h][a] > reads[h][b] || reads[h][a] == reads[h][b] && a < b
		})
		o := &oracle{resident: map[int]bool{}}
		for _, k := range ranked[:min(replayCacheSize, len(ranked))] {
			o.resident[k] = true
		}
		return o
	})

	t.Logf("%d ops over %d s, %d handles × %d slots, %d keys", len(ops), replaySeconds, replayHandles, replayCacheSize, spec.Keys)
	t.Logf("%-12s  %-22s  %-22s  %-22s", "class", "plain LRU (parent)", "admission (this cache)", "static top-N oracle")
	t.Logf("%-12s  %-10s %-11s  %-10s %-11s  %-10s %-11s", "", "key hit", "socket-free", "key hit", "socket-free", "key hit", "socket-free")
	classes := []string{""}
	for _, cl := range spec.SortedClasses() {
		classes = append(classes, cl.Name)
	}
	for _, cl := range classes {
		name := cl
		if name == "" {
			name = "all"
		}
		a, l, o := withAdmission[cl], lru[cl], best[cl]
		t.Logf("%-12s  %-10.3f %-11.3f  %-10.3f %-11.3f  %-10.3f %-11.3f", name,
			l.keyHit(), l.free(), a.keyHit(), a.free(), o.keyHit(), o.free())
	}
	for h, hc := range hcs {
		t.Logf("handle %d: evictions=%d rejects=%d", h, hc.Evictions(), hc.Rejects())
	}

	if got := withAdmission["interactive"].keyHit(); got < 0.74 {
		t.Errorf("interactive key hit ratio %.3f, want ≥ 0.74 (plain LRU %.3f, oracle %.3f)", got, lru["interactive"].keyHit(), best["interactive"].keyHit())
	}
	if got := withAdmission[""].keyHit(); got < 0.52 {
		t.Errorf("overall key hit ratio %.3f, want ≥ 0.52 (plain LRU %.3f)", got, lru[""].keyHit())
	}
}

// countingPolicy never hits; it records which keys its handle reads.
type countingPolicy struct{ reads map[int]int }

func (c countingPolicy) lookup(keys []int, _ []bool) {
	for _, k := range keys {
		c.reads[k]++
	}
}
func (countingPolicy) fill(int)       {}
func (countingPolicy) invalidate(int) {}
