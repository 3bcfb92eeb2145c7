package loadgen

// The execution half of the engine: Run takes the op sequence Generate
// made of a spec and drives it against netstore Stores, one connection
// per (client, worker) stream. It keeps one record per op and derives
// every number it reports from those records.

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
	// Latency summarizes successful reads, each timed from the op's due
	// time to its completion (ns), so a backlog and a late generator
	// count.
	Latency metrics.Summary
	// Late summarizes how long after its due time each issued op was
	// issued (ns); a closed-loop op is due when it is issued.
	Late metrics.Summary
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
		fmt.Fprintf(&b, "class %s (prio %d): ops=%d keys=%d late_p99=%.3fms p50=%.3fms p99=%.3fms p999=%.3fms err=%d expired=%d cancelled=%d hedges=%d\n",
			c.Class, c.Priority, c.Ops, c.KeysRead, metrics.Millis(c.Late.P99),
			metrics.Millis(c.Latency.Median), metrics.Millis(c.Latency.P99), metrics.Millis(c.Latency.P999),
			c.Errors, c.Expired, c.Cancelled, c.Hedged)
	}
	return b.String()
}

// opRecord is one op of a run: when it was due, issued and done, as
// offsets from the run's start, how it ended and how many hedges it
// fired; ran is false for an op the run never issued. Only the
// goroutine that issues the op writes its record.
type opRecord struct {
	due, issued, done time.Duration
	ran               bool
	err               error
	hedged            int32
}

type workerStream struct {
	client string
	worker int
	idx    int
	ops    []int // indices into the run's ops, Seq order
}

// Run executes ops against the configured stores and reports per-class
// outcomes. classes defines the report rows and priorities, and each
// read carries its class's wire-priority bias (ops naming a class
// outside the list are tallied under it anyway, priority 0, unbiased).
// Pacing: an op with TS > 0 is due at run-start+TS and is issued then on
// a goroutine of its own, however many of the worker's ops are still
// outstanding; TS = 0 ops are closed-loop — issued, and due, as soon as
// the worker's previous op completed. Cancelling ctx stops the run
// between ops.
func Run(ctx context.Context, classes []ClassSpec, ops []Op, cfg RunConfig) (*Report, error) {
	if cfg.Dial == nil {
		return nil, fmt.Errorf("loadgen: RunConfig.Dial is required")
	}
	bias := map[string]int64{}
	for _, cl := range classes {
		bias[cl.Name] = cl.bias()
	}
	streams := partition(ops)
	recs := make([]opRecord, len(ops))
	dialErrs := make([]error, len(streams))
	start := time.Now()
	var wg sync.WaitGroup
	for si := range streams {
		st := &streams[si]
		wg.Add(1)
		go func() {
			defer wg.Done()
			store, err := cfg.Dial(st.client, st.worker, st.idx)
			if err != nil {
				dialErrs[si] = fmt.Errorf("loadgen: dial %s/%d: %w", st.client, st.worker, err)
				return
			}
			defer store.Close()
			var paced sync.WaitGroup
			for _, i := range st.ops {
				op, rec := &ops[i], &recs[i]
				if op.TS > 0 {
					if d := time.Until(start.Add(time.Duration(op.TS))); d > 0 {
						t := time.NewTimer(d)
						select {
						case <-t.C:
						case <-ctx.Done():
							t.Stop()
						}
					}
				}
				if ctx.Err() != nil {
					break
				}
				if op.TS == 0 {
					execOp(ctx, start, store, op, &cfg, bias[op.Class], rec)
					continue
				}
				paced.Add(1)
				go func() {
					defer paced.Done()
					execOp(ctx, start, store, op, &cfg, bias[op.Class], rec)
				}()
			}
			paced.Wait()
			if cfg.PostWorker != nil {
				cfg.PostWorker(st.client, st.worker, store)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range dialErrs {
		if err != nil {
			return nil, err
		}
	}
	return buildReport(classes, ops, recs, wall), nil
}

// execOp issues one op, a read with the given priority bias, and
// writes its record.
func execOp(ctx context.Context, start time.Time, store netstore.Store, op *Op, cfg *RunConfig, bias int64, rec *opRecord) {
	keys := make([]string, len(op.Keys))
	for i, id := range op.Keys {
		keys[i] = fmt.Sprintf("key:%d", id)
	}
	rec.ran, rec.issued = true, time.Since(start)
	if rec.due = time.Duration(op.TS); op.TS == 0 {
		rec.due = rec.issued
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
	rec.done, rec.err = time.Since(start), err
	if res != nil {
		rec.hedged = res.Hedged
	}
	if err != nil && cfg.OnError != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		cfg.OnError(op.Client, op.Worker, err)
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
		streams[si].ops = append(streams[si].ops, i)
	}
	return streams
}

// buildReport derives the per-class report from the op records,
// ordered most urgent first.
func buildReport(classes []ClassSpec, ops []Op, recs []opRecord, wall time.Duration) *Report {
	order := append([]ClassSpec(nil), classes...)
	known := map[string]bool{}
	for _, cl := range order {
		known[cl.Name] = true
	}
	for i := range ops {
		if name := ops[i].Class; recs[i].ran && !known[name] {
			known[name] = true
			order = append(order, ClassSpec{Name: name, Priority: 0})
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Priority != order[j].Priority {
			return order[i].Priority < order[j].Priority
		}
		return order[i].Name < order[j].Name
	})
	rep := &Report{Wall: wall, Classes: make([]ClassStats, len(order))}
	row := map[string]int{}
	late := make([]*metrics.Histogram, len(order))
	for i, cl := range order {
		row[cl.Name] = i
		rep.Classes[i] = ClassStats{Class: cl.Name, Priority: cl.Priority, Hist: metrics.NewLatencyHistogram()}
		late[i] = metrics.NewLatencyHistogram()
	}
	for i := range recs {
		r, op := &recs[i], &ops[i]
		if !r.ran {
			continue
		}
		c := &rep.Classes[row[op.Class]]
		c.Ops++
		c.Hedged += uint64(r.hedged)
		late[row[op.Class]].Record(int64(r.issued - r.due))
		switch {
		case errors.Is(r.err, context.DeadlineExceeded):
			c.Expired++
		case errors.Is(r.err, context.Canceled):
			c.Cancelled++
		case r.err != nil:
			c.Errors++
		case op.Kind == OpSet:
			c.BytesWritten += uint64(op.Size)
		case op.Kind == OpDel:
		default: // a successful OpGet
			c.KeysRead += uint64(len(op.Keys))
			c.Hist.Record(int64(r.done - r.due))
		}
	}
	for i := range rep.Classes {
		c := &rep.Classes[i]
		c.Latency, c.Late = c.Hist.Summarize(), late[i].Summarize()
		rep.TotalOps += c.Ops
	}
	return rep
}
