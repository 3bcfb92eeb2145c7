package netstore

// Hedged reads: the tail-cutting half of the client's latency toolkit.
//
// A batch that has been outstanding past what its replica *usually*
// takes is probably straggling — queued behind a GC pause, a slow disk,
// an overloaded worker pool. Rather than wait it out, the client
// re-issues the same keys to the next-C3-ranked replica and takes
// whichever complete answer lands first. There is one attempt loop per
// read batch, Cluster.fetchBatch, with at most two legs in flight: the
// primary and one hedge. Failover and hedging are its two ways to start
// a leg — failover when no leg is left in flight, the hedge when the
// trigger fires — so they share one tried set and one scorer account.
// With hedging off the trigger is nil and the loop is plain failover.
//
// The trigger is a deadline counted from the primary's send: a
// quantile of the primary replica's observed response-time
// distribution (the C3 scorer's EWMA mean + mean-absolute-deviation,
// read through c3.ResponseQuantile), floored at Delay, so hedges fire
// when a request has outlived its forecast, not on a wall-clock guess;
// a replica with no feedback yet waits exactly Delay.
//
// Hedging trades redundancy for latency: every fired hedge is real work
// a second server performs. It is bounded (at most one hedge per
// primary, never without deadline budget remaining), and the
// fired/won/wasted counts make the spend observable — a wasted-heavy
// ratio means the trigger fires too early.

import (
	"fmt"
	"time"

	"github.com/brb-repro/brb/internal/c3"
)

// HedgeMode selects when (if ever) a read batch is hedged.
type HedgeMode int

const (
	// HedgeOff disables hedging (the default): one replica per batch,
	// failover only on transport errors.
	HedgeOff HedgeMode = iota
	// HedgeAdaptive hedges after the Quantile of the primary replica's
	// observed response-time distribution (per the shard's C3 scorer),
	// floored at Delay, which is the whole trigger while the replica
	// has no feedback yet.
	HedgeAdaptive
)

// String implements fmt.Stringer for HedgeMode.
func (m HedgeMode) String() string {
	switch m {
	case HedgeOff:
		return "off"
	case HedgeAdaptive:
		return "adaptive"
	}
	return fmt.Sprintf("HedgeMode(%d)", int(m))
}

// HedgePolicy configures hedged reads (ReadOptions.Hedge). The zero
// value disables hedging.
type HedgePolicy struct {
	// Mode selects off (default) or adaptive-quantile triggering.
	Mode HedgeMode
	// Delay is the trigger's floor, and the whole trigger for a replica
	// with no response feedback yet. Default 1ms.
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
	case HedgeOff, HedgeAdaptive:
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
// the given replica should hedge: the Quantile of the replica's
// response-time forecast, floored at Delay. The floor covers replicas
// with no feedback — ResponseQuantile returns 0 there, and hedging
// instantly on a cold replica would double every request at startup.
func (p HedgePolicy) triggerDelay(scorer *c3.Scorer, replica int) time.Duration {
	return max(p.Delay, time.Duration(scorer.ResponseQuantile(replica, p.Quantile)))
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

// newHedgeTimer arms the hedge-trigger timer for deadline at, honoring
// the test hook (ClusterOptions.hedgeTimer) when installed. The returned
// stop func must be safe to call after the timer fired.
func (c *Cluster) newHedgeTimer(at time.Time) (<-chan time.Time, func()) {
	if c.opts.hedgeTimer != nil {
		return c.opts.hedgeTimer(at)
	}
	t := time.NewTimer(max(time.Until(at), 0))
	return t.C, func() { t.Stop() }
}
