package loadgen

// The execution half of the engine: Run takes the op sequence Generate
// made of a spec and drives it against netstore Stores, one connection
// per (client, worker) stream, reporting latency and outcome tallies
// per SLO class.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/brb-repro/brb/internal/metrics"
	"github.com/brb-repro/brb/internal/netstore"
)

// RunConfig wires the engine to its environment. Dial is the only
// required field.
type RunConfig struct {
	// Dial returns the store one worker issues its ops through; called
	// once per (client, worker) stream before the run starts. idx is
	// the stream's global index in first-appearance order — the legacy
	// per-connection numbering (seeded RNGs, sticky cluster clients)
	// hangs off it.
	Dial func(client string, worker, idx int) (netstore.Store, error)
	// Timeout bounds each op (0 falls through to the store's default).
	Timeout time.Duration
	// ReadOptions is the base for every read — hedge policy, replica
	// preference. The engine overrides Timeout and PriorityBias per op.
	ReadOptions netstore.ReadOptions
	// WriteOptions is the base for every write; Timeout is overridden
	// per op.
	WriteOptions netstore.WriteOptions
	// MaxInFlight caps a worker's concurrently outstanding paced ops
	// (open-loop arrival processes only; closed-loop streams are
	// sequential by definition). Default 32.
	MaxInFlight int
	// OnError observes hard (non-deadline, non-cancel) op failures.
	// The engine counts every failure per class regardless; the hook
	// exists for logging. May be called concurrently.
	OnError func(client string, worker int, err error)
	// PostWorker runs after a worker's last op completes, before its
	// store is closed — the hook brb-load's fault-injection epilogue
	// (outage wait, hint harvesting) rides on.
	PostWorker func(client string, worker int, st netstore.Store)
}

// ClassStats is one SLO class's outcome tally for a run.
type ClassStats struct {
	Class    string
	Priority int
	// Ops counts issued ops; KeysRead the keys of successful reads;
	// BytesWritten the payload of successful writes.
	Ops, KeysRead, BytesWritten uint64
	// Errors are hard failures; Expired deadline misses; Cancelled
	// caller cancellations; Hedged the hedge attempts fired serving
	// this class's reads.
	Errors, Expired, Cancelled, Hedged uint64
	// Latency summarizes successful read latencies (ns).
	Latency metrics.Summary
	// Hist is the backing read-latency histogram, mergeable across
	// runs.
	Hist *metrics.Histogram
}

// Report is a run's outcome, per class (most urgent first).
type Report struct {
	Wall     time.Duration
	TotalOps uint64
	Classes  []ClassStats
}

// String renders the per-class lines brb-load prints and CI greps:
// one "class <name> (prio N): ..." line per class.
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Classes {
		c := &r.Classes[i]
		fmt.Fprintf(&b, "class %s (prio %d): ops=%d keys=%d p50=%.3fms p99=%.3fms p999=%.3fms err=%d expired=%d cancelled=%d hedges=%d\n",
			c.Class, c.Priority, c.Ops, c.KeysRead,
			metrics.Millis(c.Latency.Median), metrics.Millis(c.Latency.P99), metrics.Millis(c.Latency.P999),
			c.Errors, c.Expired, c.Cancelled, c.Hedged)
	}
	return b.String()
}

// classAcc is a worker-local accumulator. Its mutex serializes the
// paced case, where one worker's in-flight ops complete concurrently;
// it is never contended across workers.
type classAcc struct {
	mu                                 sync.Mutex
	ops, keysRead, bytesWritten        uint64
	errors, expired, cancelled, hedged uint64
	hist                               *metrics.Histogram
}

type workerStream struct {
	client string
	worker int
	idx    int
	ops    []Op // Seq order
}

// Run executes ops against the configured stores and reports per-class
// outcomes. classes defines the report rows and priorities, and each
// read carries its class's wire-priority bias (ops naming a class
// outside the list are tallied under it anyway, priority 0, unbiased).
// Pacing: an op with TS > 0 is issued at run-start+TS (concurrently,
// bounded by MaxInFlight); TS = 0 ops are closed-loop — issued as soon
// as the worker's previous op completed. Cancelling ctx stops the run
// between ops.
func Run(ctx context.Context, classes []ClassSpec, ops []Op, cfg RunConfig) (*Report, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("loadgen: RunConfig.Dial is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	bias := map[string]int64{}
	for _, cl := range classes {
		bias[cl.Name] = cl.bias()
	}
	streams := partition(ops)
	accs := make([]map[string]*classAcc, len(streams))
	var firstErr error
	var firstErrMu sync.Mutex
	fail := func(err error) {
		firstErrMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		firstErrMu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for si := range streams {
		si := si
		st := streams[si]
		acc := map[string]*classAcc{}
		accs[si] = acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			store, err := cfg.Dial(st.client, st.worker, st.idx)
			if err != nil {
				fail(fmt.Errorf("loadgen: dial %s/%d: %w", st.client, st.worker, err))
				return
			}
			defer store.Close()
			var opWG sync.WaitGroup
			sem := make(chan struct{}, cfg.MaxInFlight)
			for i := range st.ops {
				if ctx.Err() != nil {
					break
				}
				op := &st.ops[i]
				if op.TS > 0 {
					if d := time.Until(start.Add(time.Duration(op.TS))); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-t.C:
						case <-ctx.Done():
							t.Stop()
						}
					}
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
					}
					if ctx.Err() != nil {
						break
					}
					a := classAccFor(acc, op.Class)
					opWG.Add(1)
					go func() {
						defer opWG.Done()
						defer func() { <-sem }()
						execOp(ctx, store, op, &cfg, bias[op.Class], a)
					}()
				} else {
					execOp(ctx, store, op, &cfg, bias[op.Class], classAccFor(acc, op.Class))
				}
			}
			opWG.Wait()
			if cfg.PostWorker != nil {
				cfg.PostWorker(st.client, st.worker, store)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	return buildReport(classes, accs, wall), nil
}

// classAccFor resolves (creating on demand) the worker's accumulator
// for a class. Always called on the worker's issuing goroutine — never
// from an in-flight op — so the map itself needs no lock.
func classAccFor(acc map[string]*classAcc, class string) *classAcc {
	a := acc[class]
	if a == nil {
		a = &classAcc{hist: metrics.NewLatencyHistogram()}
		acc[class] = a
	}
	return a
}

// execOp issues one op, a read with the given priority bias, and
// tallies its outcome. For paced streams multiple execOps of one worker
// run concurrently, so updates lock the accumulator; the contention is
// negligible next to a network round trip.
func execOp(ctx context.Context, store netstore.Store, op *Op, cfg *RunConfig, bias int64, a *classAcc) {
	keys := make([]string, len(op.Keys))
	for i, id := range op.Keys {
		keys[i] = fmt.Sprintf("key:%d", id)
	}
	var err error
	var res *netstore.TaskResult
	switch op.Kind {
	case OpSet:
		wopts := cfg.WriteOptions
		wopts.Timeout = cfg.Timeout
		err = store.Set(ctx, keys[0], make([]byte, op.Size), wopts)
	case OpDel:
		wopts := cfg.WriteOptions
		wopts.Timeout = cfg.Timeout
		err = store.Delete(ctx, keys[0], wopts)
	default: // OpGet
		ropts := cfg.ReadOptions
		ropts.Timeout = cfg.Timeout
		ropts.PriorityBias = bias
		res, err = store.Multiget(ctx, keys, ropts)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ops++
	if res != nil {
		a.hedged += uint64(res.Hedged)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			a.expired++
		case errors.Is(err, context.Canceled):
			a.cancelled++
		default:
			a.errors++
			if cfg.OnError != nil {
				cfg.OnError(op.Client, op.Worker, err)
			}
		}
		return
	}
	switch op.Kind {
	case OpSet:
		a.bytesWritten += uint64(op.Size)
	case OpDel:
	default:
		a.keysRead += uint64(len(op.Keys))
		a.hist.Record(res.Latency.Nanoseconds())
	}
}

// Streams returns how many (client, worker) streams — and so how many
// Dial calls and store connections — Run makes of ops.
func Streams(ops []Op) int { return len(partition(ops)) }

// partition splits ops into per-(client, worker) streams in
// first-appearance order, preserving op order within each stream.
func partition(ops []Op) []workerStream {
	var streams []workerStream
	index := map[[2]string]int{}
	for i := range ops {
		op := &ops[i]
		key := [2]string{op.Client, fmt.Sprintf("%d", op.Worker)}
		si, ok := index[key]
		if !ok {
			si = len(streams)
			index[key] = si
			streams = append(streams, workerStream{client: op.Client, worker: op.Worker, idx: si})
		}
		streams[si].ops = append(streams[si].ops, *op)
	}
	return streams
}

// buildReport merges worker accumulators into the final per-class
// report, ordered most urgent first.
func buildReport(classes []ClassSpec, accs []map[string]*classAcc, wall time.Duration) *Report {
	prio := map[string]int{}
	order := append([]ClassSpec(nil), classes...)
	for _, cl := range order {
		prio[cl.Name] = cl.Priority
	}
	merged := map[string]*classAcc{}
	for _, acc := range accs {
		for name, a := range acc {
			m := merged[name]
			if m == nil {
				m = &classAcc{hist: metrics.NewLatencyHistogram()}
				merged[name] = m
			}
			m.ops += a.ops
			m.keysRead += a.keysRead
			m.bytesWritten += a.bytesWritten
			m.errors += a.errors
			m.expired += a.expired
			m.cancelled += a.cancelled
			m.hedged += a.hedged
			m.hist.Merge(a.hist)
		}
	}
	for name := range merged {
		if _, ok := prio[name]; !ok {
			order = append(order, ClassSpec{Name: name, Priority: 0})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Priority != order[j].Priority {
			return order[i].Priority < order[j].Priority
		}
		return order[i].Name < order[j].Name
	})
	rep := &Report{Wall: wall}
	for _, cl := range order {
		a := merged[cl.Name]
		if a == nil {
			a = &classAcc{hist: metrics.NewLatencyHistogram()}
		}
		rep.TotalOps += a.ops
		rep.Classes = append(rep.Classes, ClassStats{
			Class:        cl.Name,
			Priority:     cl.Priority,
			Ops:          a.ops,
			KeysRead:     a.keysRead,
			BytesWritten: a.bytesWritten,
			Errors:       a.errors,
			Expired:      a.expired,
			Cancelled:    a.cancelled,
			Hedged:       a.hedged,
			Latency:      a.hist.Summarize(),
			Hist:         a.hist,
		})
	}
	return rep
}
