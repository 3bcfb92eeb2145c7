package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/netstore"
	"github.com/brb-repro/brb/internal/wire"
)

// span is one traced interval. Spans are recorded by the harness only,
// around its calls into each layer, kept in memory and written when
// the run ends. Times are nanoseconds since the phase started. A
// layer's self time is its span minus the part its children cover.
type span struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent"`
	Trace  uint64         `json:"trace"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// spanLog collects spans; used from one goroutine at a time.
type spanLog struct {
	next  uint64
	spans []span
}

// root opens a new trace and returns its root span's id.
func (l *spanLog) root(name string, start, end int64, attrs map[string]any) uint64 {
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Trace: l.next, Name: name, Start: start, End: end, Attrs: attrs})
	return l.next
}

// child records a span caused by parent (a root span's id).
func (l *spanLog) child(parent uint64, name string, start, end int64) {
	l.next++
	l.spans = append(l.spans, span{ID: l.next, Parent: parent, Trace: parent, Name: name, Start: start, End: end})
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a snapshot of every count the traced window takes a
// delta of, all read at the same boundary.
type counters struct {
	at                    time.Duration // since phase start
	mallocs, allocBytes   uint64
	gcPauseNs             uint64
	userNs, sysNs         int64
	served, steals        []uint64 // per server
	hedgeFired, hedgeWon  uint64
	hedgeWasted           uint64
	cacheHits, cacheMiss  uint64
	cacheEvict, cacheInv  uint64
	expiredDrops          uint64
	walAppends, walFsyncs uint64
	walBytes              uint64
}

func (tc *testCluster) snapshot(start time.Time) counters {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.userNs = ru.Utime.Nano()
		c.sysNs = ru.Stime.Nano()
	}
	for _, s := range tc.servers {
		c.served = append(c.served, s.Served())
		c.steals = append(c.steals, s.SchedSteals())
	}
	for _, h := range tc.handles {
		c.hedgeFired += h.HedgesFired()
		c.hedgeWon += h.HedgesWon()
		c.hedgeWasted += h.HedgesWasted()
		c.cacheHits += h.CacheHits()
		c.cacheMiss += h.CacheMisses()
		c.cacheEvict += h.CacheEvictions()
		c.cacheInv += h.CacheInvalidations()
	}
	c.expiredDrops = metrics.CounterValue("netstore_server_expired_drops_total")
	c.walAppends = metrics.CounterValue("kv_wal_appends_total")
	c.walFsyncs = metrics.CounterValue("kv_wal_fsyncs_total")
	c.walBytes = metrics.CounterValue("kv_wal_bytes_total")
	c.at = time.Since(start)
	return c
}

// probeSample is one probe round trip against one server, decomposed
// with the fields the server piggybacks on its response.
type probeSample struct {
	start, rtt    int64 // ns since phase start; ns
	wait, service int64 // queue wait and service the server reported
	queueLen      uint32
}

// wireKernel is what the server did not account for: both directions
// through the codec, the sockets and the kernel.
func (p *probeSample) wireKernel() int64 { return max(0, p.rtt-p.wait-p.service) }

const (
	probeInterval  = 20 * time.Millisecond // ≤ 50 single-key requests/s per server
	sampleInterval = time.Millisecond      // queue-length sampling tick (one timer quantum in practice)
)

// tracer is what the traced window runs beside the workload: one probe
// connection per server, a queue-length sampler, and counter snapshots
// at both ends of the window.
type tracer struct {
	tc      *testCluster
	keys    []string
	start   time.Time
	stop    chan struct{}
	wg      sync.WaitGroup
	before  counters
	after   counters
	probes  [][]probeSample // per server
	qlens   []int           // every (tick, server) sample
	probeMu sync.Mutex
	errs    []error
	begun   bool
}

func newTracer(tc *testCluster, keys []string, start time.Time) *tracer {
	return &tracer{tc: tc, keys: keys, start: start, stop: make(chan struct{}), probes: make([][]probeSample, len(tc.servers))}
}

// begin snapshots the counters and starts the probes and the sampler.
func (t *tracer) begin() {
	t.begun = true
	t.before = t.tc.snapshot(t.start)
	for i := range t.tc.servers {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := t.probe(i); err != nil {
				t.probeMu.Lock()
				t.errs = append(t.errs, fmt.Errorf("probe server %d: %w", i, err))
				t.probeMu.Unlock()
			}
		}()
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				for _, s := range t.tc.servers {
					t.qlens = append(t.qlens, s.QueueLen())
				}
			}
		}
	}()
}

// end stops the probes and the sampler and snapshots the counters.
func (t *tracer) end() {
	if !t.begun {
		t.begin() // a phase too short to reach its window still gets one, empty
	}
	close(t.stop)
	t.wg.Wait()
	t.after = t.tc.snapshot(t.start)
}

// probe sends single-key batches to server i over its own connection,
// at the priority a one-key task of the workload would carry, until
// the tracer stops.
func (t *tracer) probe(i int) error {
	w := t.tc.w
	shard := i / w.replicas
	var owned []int
	for id, k := range t.keys {
		if t.tc.topo.ShardOfKey(k) == shard {
			owned = append(owned, id)
		}
	}
	if len(owned) == 0 {
		return nil
	}
	cost := clientCostModel(w)
	conn, err := net.Dial("tcp", t.tc.addrs[i])
	if err != nil {
		return err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for n := 0; ; n++ {
		select {
		case <-t.stop:
			return nil
		case <-time.After(probeInterval):
		}
		id := owned[n%len(owned)]
		var prio int64
		if w.discipline == netstore.Priority {
			prio = cost.Estimate(int64(t.tc.sizes[id]))
		}
		req := &wire.BatchReq{Batch: uint64(n), Shard: uint32(shard), Replica: uint32(i % w.replicas), Priority: []int64{prio}, Keys: []string{t.keys[id]}}
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return err
		}
		sent := time.Now()
		if err := wire.WriteMessage(conn, req); err != nil {
			return err
		}
		m, err := wire.ReadMessage(br)
		if err != nil {
			return err
		}
		rtt := time.Since(sent)
		resp, ok := m.(*wire.BatchResp)
		if !ok || len(resp.Values) != 1 || !resp.Found[0] || !checkValue(id, resp.Values[0]) {
			return fmt.Errorf("bad answer for %s", t.keys[id])
		}
		// WaitNanos is the batch's whole residence (enqueue → last key
		// done), ServiceNanos its summed service: for one key the
		// difference is the time it queued.
		t.probes[i] = append(t.probes[i], probeSample{
			start: sent.Sub(t.start).Nanoseconds(), rtt: rtt.Nanoseconds(),
			wait: max(0, resp.WaitNanos-resp.ServiceNanos), service: resp.ServiceNanos, queueLen: resp.QueueLen,
		})
	}
}
