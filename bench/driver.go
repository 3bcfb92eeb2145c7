package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/brb-repro/brb/internal/loadgen"
	"github.com/brb-repro/brb/internal/netstore"
)

// opRec is one executed op: when it was due, issued and done, in
// nanoseconds since the phase started. Closed-loop ops are due when
// issued. Every latency, throughput and span of a phase derives from
// these records.
type opRec struct {
	due, issued, done int64
	op                *loadgen.Op
	failed            bool
}

// latency is what a user of the store waited: completion minus the
// time the op was due, so a stalled generator's backlog counts.
func (r *opRec) latency() int64 { return r.done - r.due }

// driver executes ops against a cluster's handles and verifies every
// value read.
type driver struct {
	tc     *testCluster
	keys   []string
	bias   map[string]int64 // SLO class → wire priority bias
	errLog atomic.Int32     // failures reported to stderr so far
}

func newDriver(tc *testCluster, keys []string, spec *loadgen.Spec) *driver {
	d := &driver{tc: tc, keys: keys, bias: map[string]int64{}}
	for _, cl := range spec.Classes {
		d.bias[cl.Name] = spec.ClassBias(cl.Name)
	}
	return d
}

func (d *driver) reportFailure(op *loadgen.Op, what string) {
	if d.errLog.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: op %s/%d#%d (%s) failed: %s\n", d.tc.w.name, op.Client, op.Worker, op.Seq, op.Kind, what)
	}
}

// exec issues one op on handle h and reports whether it succeeded: no
// error, and for reads every key found with a value that validates.
func (d *driver) exec(ctx context.Context, h *netstore.Cluster, op *loadgen.Op) bool {
	switch op.Kind {
	case loadgen.OpSet:
		// A Set rewrites its key with a fresh value of the key's dataset
		// size (op.Size is not used): the size distribution decides
		// service costs, and must not drift with the traffic seed.
		id := op.Keys[0]
		if err := h.Set(ctx, d.keys[id], makeValue(id, d.tc.sizes[id]), netstore.WriteOptions{}); err != nil {
			d.reportFailure(op, err.Error())
			return false
		}
		return true
	case loadgen.OpGet:
		ks := make([]string, len(op.Keys))
		for i, id := range op.Keys {
			ks[i] = d.keys[id]
		}
		res, err := h.Multiget(ctx, ks, netstore.ReadOptions{Hedge: d.tc.w.hedge, PriorityBias: d.bias[op.Class]})
		if err != nil {
			d.reportFailure(op, err.Error())
			return false
		}
		for i, id := range op.Keys {
			if !res.Found[i] || !checkValue(id, res.Values[i]) {
				d.reportFailure(op, fmt.Sprintf("%s: found=%v, %d bytes fail the value check", ks[i], res.Found[i], len(res.Values[i])))
				return false
			}
		}
		return true
	}
	d.reportFailure(op, "op kind the benchmark does not generate")
	return false
}

// streamKey identifies one (client, worker) op stream of a schedule.
type streamKey struct {
	client string
	worker int
}

func streamOf(op *loadgen.Op) streamKey { return streamKey{op.Client, op.Worker} }

// streamIndex numbers the streams of a schedule in first-appearance
// order; stream s issues on handle s mod H.
func streamIndex(ops []loadgen.Op) map[streamKey]int {
	idx := map[streamKey]int{}
	for i := range ops {
		if _, ok := idx[streamOf(&ops[i])]; !ok {
			idx[streamOf(&ops[i])] = len(idx)
		}
	}
	return idx
}

// runOpen issues the schedule open loop: each op starts at phase start
// + TS whatever the system's state, on its own goroutine, so a slow
// store faces a growing backlog instead of a slower generator. onTrace
// runs once, on the dispatcher, before the first op due at or after
// traceFrom. giveUp bounds the dispatcher: past it the remaining ops
// are not issued and fewer than len(ops) records come back. start is
// the phase's time zero.
func (d *driver) runOpen(ctx context.Context, start time.Time, ops []loadgen.Op, traceFrom int64, onTrace func(), giveUp time.Duration) []opRec {
	streams := streamIndex(ops)
	recs := make([]opRec, len(ops))
	issued := 0
	var wg sync.WaitGroup
	for i := range ops {
		op := &ops[i]
		if onTrace != nil && op.TS >= traceFrom {
			onTrace()
			onTrace = nil
		}
		if wait := time.Duration(op.TS) - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		if time.Since(start) > giveUp {
			break
		}
		h := d.tc.handles[streams[streamOf(op)]%len(d.tc.handles)]
		issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &recs[i]
			r.op, r.due = op, op.TS
			r.issued = time.Since(start).Nanoseconds()
			r.failed = !d.exec(ctx, h, op)
			r.done = time.Since(start).Nanoseconds()
		}()
	}
	wg.Wait()
	return recs[:issued]
}

// runClosed runs one closed-loop caller per stream for the given time:
// each issues its next op when the previous one returns, wrapping
// around its stream. onTrace runs once, traceFrom into the phase.
func (d *driver) runClosed(ctx context.Context, start time.Time, ops []loadgen.Op, length time.Duration, traceFrom int64, onTrace func()) []opRec {
	idx := streamIndex(ops)
	streams := make([][]*loadgen.Op, len(idx))
	for i := range ops {
		s := idx[streamOf(&ops[i])]
		streams[s] = append(streams[s], &ops[i])
	}
	perCaller := make([][]opRec, len(streams))
	var wg sync.WaitGroup
	if onTrace != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(traceFrom))
			onTrace()
		}()
	}
	for c, stream := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.tc.handles[c%len(d.tc.handles)]
			out := make([]opRec, 0, 1<<14)
			for i := 0; ; i++ {
				t0 := time.Since(start)
				if t0 >= length {
					break
				}
				op := stream[i%len(stream)]
				failed := !d.exec(ctx, h, op)
				out = append(out, opRec{due: t0.Nanoseconds(), issued: t0.Nanoseconds(), done: time.Since(start).Nanoseconds(), op: op, failed: failed})
			}
			perCaller[c] = out
		}()
	}
	wg.Wait()
	var recs []opRec
	for _, out := range perCaller {
		recs = append(recs, out...)
	}
	return recs
}
