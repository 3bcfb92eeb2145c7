package netstore

// Hedged reads: the tail-cutting half of the client's latency toolkit.
//
// A batch that has been outstanding past what its replica *usually*
// takes is probably straggling — queued behind a GC pause, a slow disk,
// an overloaded worker pool. Rather than wait it out, the client
// re-issues the same keys to the next-C3-ranked replica and takes
// whichever complete answer lands first. The trigger is either a fixed
// delay or an adaptive quantile of the replica's observed response-time
// distribution (the C3 scorer's EWMA mean + mean-absolute-deviation,
// read through c3.ResponseQuantile), so hedges fire exactly when a
// request has outlived its forecast, not on a wall-clock guess.
//
// Hedging trades redundancy for latency: every fired hedge is real work
// a second server performs. It is bounded (at most one hedge per batch,
// never without deadline budget remaining), and the fired/won/wasted
// counters make the spend observable — a wasted-heavy ratio means the
// trigger fires too early.

import (
	"context"
	"fmt"
	"time"

	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/wire"
)

// HedgeMode selects when (if ever) a read batch is hedged.
type HedgeMode int

const (
	// HedgeOff disables hedging (the default): one replica per batch,
	// failover only on transport errors.
	HedgeOff HedgeMode = iota
	// HedgeFixed hedges after a fixed Delay outstanding.
	HedgeFixed
	// HedgeAdaptive hedges after the Quantile of the issuing replica's
	// observed response-time distribution (per the shard's C3 scorer),
	// floored at Delay while the replica has no feedback yet.
	HedgeAdaptive
)

// String implements fmt.Stringer for HedgeMode.
func (m HedgeMode) String() string {
	switch m {
	case HedgeOff:
		return "off"
	case HedgeFixed:
		return "fixed"
	case HedgeAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("HedgeMode(%d)", int(m))
}

// HedgePolicy configures hedged reads (ReadOptions.Hedge). The zero
// value disables hedging.
type HedgePolicy struct {
	// Mode selects off (default), fixed-delay, or adaptive-quantile
	// triggering.
	Mode HedgeMode
	// Delay is the fixed trigger delay (HedgeFixed), and the cold-start
	// floor under HedgeAdaptive for replicas with no response feedback
	// yet. Default 1ms.
	Delay time.Duration
	// Quantile is the adaptive trigger point in (0, 1): hedge once the
	// batch has been outstanding past this quantile of the replica's
	// forecast response-time distribution. Default 0.9.
	Quantile float64
}

// Validate rejects self-contradictory policies before any request is
// issued. Zero fields are valid (they take defaults).
func (p HedgePolicy) Validate() error {
	switch p.Mode {
	case HedgeOff, HedgeFixed, HedgeAdaptive:
	default:
		return fmt.Errorf("netstore: unknown hedge mode %d", int(p.Mode))
	}
	if p.Delay < 0 {
		return fmt.Errorf("netstore: negative hedge delay %v", p.Delay)
	}
	if p.Quantile < 0 || p.Quantile >= 1 {
		return fmt.Errorf("netstore: hedge quantile %v outside (0, 1)", p.Quantile)
	}
	return nil
}

// withDefaults resolves zero fields to the documented defaults. Off
// stays untouched — its other fields are never read.
func (p HedgePolicy) withDefaults() HedgePolicy {
	if p.Mode == HedgeOff {
		return p
	}
	if p.Delay <= 0 {
		p.Delay = time.Millisecond
	}
	if p.Quantile <= 0 || p.Quantile >= 1 {
		p.Quantile = 0.9
	}
	return p
}

// triggerDelay is the outstanding time after which a batch issued to
// the given replica should hedge: the configured fixed delay, or the
// adaptive quantile of the replica's response-time forecast (floored at
// Delay, which covers replicas with no feedback — ResponseQuantile
// returns 0 there, and hedging instantly on a cold replica would double
// every request at startup).
func (p HedgePolicy) triggerDelay(scorer *c3.Scorer, replica int) time.Duration {
	d := p.Delay
	if p.Mode == HedgeAdaptive {
		if q := scorer.ResponseQuantile(replica, p.Quantile); q > float64(d) {
			d = time.Duration(q)
		}
	}
	return d
}

// HedgesFired, HedgesWon and HedgesWasted return the ClusterStats
// fields of the same names. The repository benchmark (bench/trace.go)
// is their only caller, as it is of CacheHits, CacheMisses,
// CacheEvictions, CacheInvalidations, Server.Served and
// Server.SchedSteals; everything else reads Stats(), and CI fails a
// call from outside bench/.
func (c *Cluster) HedgesFired() uint64  { return c.hedgesFired.Load() }
func (c *Cluster) HedgesWon() uint64    { return c.hedgesWon.Load() }
func (c *Cluster) HedgesWasted() uint64 { return c.hedgesWasted.Load() }

// newHedgeTimer arms the hedge-trigger timer, honoring the test hook
// (ClusterOptions.hedgeTimer) when installed. The returned stop func
// must be safe to call after the timer fired.
func (c *Cluster) newHedgeTimer(d time.Duration) (<-chan time.Time, func()) {
	if c.opts.hedgeTimer != nil {
		return c.opts.hedgeTimer(d)
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// hedgedBatch issues one shard batch to the picked replica — already
// counted outstanding in the scorer by the caller — and, when it stays
// outstanding past the policy's trigger, re-issues the same keys once
// to the next-ranked untried replica, returning the first complete
// answer (and which replica produced it). Losing attempts are not
// cancelled on the wire — the protocol has no cancel frame — but their
// waiter goroutines stay behind just long enough to fold the late
// response into the shard's scorer and validate cache versions against
// it, bounded by ctx (every request context carries a deadline by
// construction). Replicas this call attempts are marked in tried, so
// the caller's failover loop never re-picks them. Each attempt's request
// is built in p, the piece b belongs to.
//
// An error return means every attempt's connection died (each already
// marked down, arming the prober) or ctx ended; the caller fails over
// or surfaces the deadline exactly as for an unhedged attempt.
//
// The third result is the number of hedges this call fired (0 or 1), on
// success and failure alike — the caller accounts them to the task
// (TaskResult.Hedged) so per-class workload reports can attribute
// hedging spend, which the per-client ClusterStats cannot.
func (c *Cluster) hedgedBatch(ctx context.Context, st *topoState, scorer *c3.Scorer, p *piece, b shardBatch, first int, slot *serverSlot, sc *serverConn, tried []bool, pol HedgePolicy) (*wire.BatchResp, int, int, error) {
	n := len(b.keys)
	type outcome struct {
		rep  int
		resp *wire.BatchResp // nil: the attempt's connection died or ctx ended
	}
	// Buffered for both attempts, so a loser's goroutine can always
	// deliver its outcome and exit even after this call returned.
	results := make(chan outcome, 2)
	// launch sends the batch to a replica where the scorer already counts
	// its keys outstanding; every way the attempt can end unwinds them.
	launch := func(rep int, slot *serverSlot, sc *serverConn) bool {
		c.batches.Add(1)
		id, ch, err := sc.start(ctx, p.request(st, b, rep), "batch")
		if err != nil {
			scorer.OnError(rep, n)
			if ctx.Err() == nil {
				c.markDown(slot, sc)
			}
			return false
		}
		sent := time.Now()
		go func() {
			select {
			case m := <-ch:
				// nil: the channel closed with the connection.
				resp, _ := m.(*wire.BatchResp)
				if resp == nil {
					scorer.OnError(rep, n)
					if ctx.Err() == nil {
						c.markDown(slot, sc)
					}
					results <- outcome{rep: rep}
					return
				}
				replyChans.Put(ch)
				c.observe(scorer, rep, b, sent, resp)
				// Even a losing answer carries authoritative versions:
				// let the cache check its entries against them.
				c.noteResponseVersions(b, resp)
				results <- outcome{rep: rep, resp: resp}
			case <-ctx.Done():
				sc.abandon(id)
				scorer.OnError(rep, n)
				results <- outcome{rep: rep}
			}
		}()
		return true
	}
	if !launch(first, slot, sc) {
		return nil, first, 0, fmt.Errorf("netstore: batch send to shard %d replica %d failed", b.shard, first)
	}
	pending, hedges := 1, 0
	// arm schedules the hedge trigger relative to now, keyed off the
	// first replica's forecast; it runs until the hedge has gone out.
	var timerC <-chan time.Time
	stopTimer := func() {}
	arm := func() {
		stopTimer()
		timerC, stopTimer = c.newHedgeTimer(pol.triggerDelay(scorer, first))
	}
	arm()
	defer func() { stopTimer() }()
	countWasted := func(w int) {
		if w > 0 {
			c.hedgesWasted.Add(uint64(w))
		}
	}
	for {
		select {
		case out := <-results:
			if out.resp != nil {
				won := 0
				if out.rep != first {
					won = 1
					c.hedgesWon.Add(1)
				}
				countWasted(hedges - won)
				return out.resp, out.rep, hedges, nil
			}
			// An attempt died; ride out the other one, if any.
			if pending--; pending == 0 {
				countWasted(hedges)
				return nil, first, hedges, fmt.Errorf("netstore: all %d attempt(s) to shard %d failed", hedges+1, b.shard)
			}
		case <-timerC:
			timerC = nil
			if _, ok := budgetOf(ctx); !ok {
				continue // deadline spent: a hedge would be shed on arrival
			}
			rep := c.nextReplica(st, b.shard, n, tried)
			if rep < 0 {
				continue // nothing left to hedge to; ride out the in-flight attempts
			}
			tried[rep] = true
			hslot := st.slotOf(b.shard, rep)
			hsc := hslot.conn.Load()
			if hsc == nil {
				scorer.OnError(rep, n)
				arm() // lost a race with markDown; re-arm and re-rank
				continue
			}
			if !launch(rep, hslot, hsc) {
				arm()
				continue
			}
			pending++
			hedges++
			c.hedgesFired.Add(1)
		case <-ctx.Done():
			countWasted(hedges)
			return nil, first, hedges, ctxErr(ctx, fmt.Sprintf("hedged batch on shard %d", b.shard))
		}
	}
}
