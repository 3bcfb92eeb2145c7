package netstore

// Hedged-read tests. The timing-sensitive scenarios are fully
// deterministic: the hedge trigger is a fake timer the test fires by
// hand (ClusterOptions.hedgeTimer), and replica slowness is a
// FaultInjector stall gate the test observes and releases — no real
// clock anywhere near the assertions.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/brb-repro/brb/internal/c3"
	"github.com/brb-repro/brb/internal/cluster"
)

func TestHedgePolicyValidate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pol     HedgePolicy
		wantErr string // substring; "" = valid
	}{
		{"zero value (off)", HedgePolicy{}, ""},
		{"adaptive defaults", HedgePolicy{Mode: HedgeAdaptive}, ""},
		{"adaptive full", HedgePolicy{Mode: HedgeAdaptive, Delay: time.Millisecond, Quantile: 0.99}, ""},
		{"quantile lower edge", HedgePolicy{Mode: HedgeAdaptive, Quantile: 0}, ""},
		{"unknown mode", HedgePolicy{Mode: HedgeMode(42)}, "unknown hedge mode"},
		{"negative delay", HedgePolicy{Mode: HedgeAdaptive, Delay: -time.Second}, "negative hedge delay"},
		{"quantile one", HedgePolicy{Mode: HedgeAdaptive, Quantile: 1}, "quantile"},
		{"quantile negative", HedgePolicy{Mode: HedgeAdaptive, Quantile: -0.5}, "quantile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.pol.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestHedgePolicyDefaults(t *testing.T) {
	// Off stays untouched: its other fields are never read, so nothing
	// should be invented for them.
	if got := (HedgePolicy{}).withDefaults(); got != (HedgePolicy{}) {
		t.Fatalf("off policy mutated by withDefaults: %+v", got)
	}
	got := HedgePolicy{Mode: HedgeAdaptive}.withDefaults()
	want := HedgePolicy{Mode: HedgeAdaptive, Delay: time.Millisecond, Quantile: 0.9}
	if got != want {
		t.Fatalf("withDefaults() = %+v, want %+v", got, want)
	}
	// Explicit fields survive.
	set := HedgePolicy{Mode: HedgeAdaptive, Delay: 7 * time.Millisecond, Quantile: 0.5}
	if got := set.withDefaults(); got != set {
		t.Fatalf("withDefaults() clobbered explicit fields: %+v", got)
	}
}

func TestHedgeModeString(t *testing.T) {
	for mode, want := range map[HedgeMode]string{
		HedgeOff:      "off",
		HedgeAdaptive: "adaptive",
		HedgeMode(9):  "HedgeMode(9)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("HedgeMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

// triggerDelay takes the replica's forecast quantile but never less
// than the configured floor (a cold replica forecasts 0 and must not
// hedge instantly: it waits exactly the floor).
func TestHedgeTriggerDelay(t *testing.T) {
	s := c3.NewScorer(2, c3.ScorerOptions{})
	// Train replica 1 on a tight 10ms response distribution; leave
	// replica 0 cold.
	for i := 0; i < 50; i++ {
		s.OnSend(1, 1)
		s.Observe(1, 1, float64(10*time.Millisecond), float64(time.Millisecond), 0)
	}

	ad := HedgePolicy{Mode: HedgeAdaptive, Delay: 3 * time.Millisecond, Quantile: 0.9}.withDefaults()
	if got := ad.triggerDelay(s, 0); got != 3*time.Millisecond {
		t.Fatalf("adaptive trigger on cold replica = %v, want the 3ms floor", got)
	}
	trained := ad.triggerDelay(s, 1)
	if trained < 9*time.Millisecond || trained > 30*time.Millisecond {
		t.Fatalf("adaptive trigger on trained replica = %v, want ~p90 of a 10ms distribution", trained)
	}
	// The floor also wins over a forecast BELOW it.
	adHigh := HedgePolicy{Mode: HedgeAdaptive, Delay: time.Second, Quantile: 0.9}.withDefaults()
	if got := adHigh.triggerDelay(s, 1); got != time.Second {
		t.Fatalf("adaptive trigger = %v, want the 1s floor to win over the forecast", got)
	}
}

// fakeHedgeTimer is the ClusterOptions.hedgeTimer test hook: it records
// every armed deadline and exposes one shared unbuffered channel, so
// fire() both triggers the hedge and synchronizes with fetchBatch's
// select (the send cannot complete until the trigger is being waited
// on).
type fakeHedgeTimer struct {
	mu    sync.Mutex
	armed []time.Time
	ch    chan time.Time
}

func newFakeHedgeTimer() *fakeHedgeTimer {
	return &fakeHedgeTimer{ch: make(chan time.Time)}
}

func (ft *fakeHedgeTimer) hook(at time.Time) (<-chan time.Time, func()) {
	ft.mu.Lock()
	ft.armed = append(ft.armed, at)
	ft.mu.Unlock()
	return ft.ch, func() {}
}

func (ft *fakeHedgeTimer) fire() { ft.ch <- time.Now() }

func (ft *fakeHedgeTimer) armedAt() []time.Time {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]time.Time(nil), ft.armed...)
}

// hedgeCluster builds a 1-shard × 2-replica cluster with a FaultInjector
// on each replica and a hand-fired hedge timer, loads one key, and
// returns the pieces. Its scorer is cold — nothing read yet — so a
// read's first attempt goes to replica 0, the primary: with no feedback
// and nothing outstanding every replica scores the same, and
// c3.Scorer.Best breaks ties by index.
func hedgeCluster(t *testing.T) (*Cluster, *fakeHedgeTimer, [2]*FaultInjector) {
	t.Helper()
	c, ft, injs, _ := hedgeClusterOf(t, 2)
	return c, ft, [2]*FaultInjector(injs)
}

// hedgeClusterOf is hedgeCluster over a 1 × replicas layout, with the
// servers, so a test can kill a leg's connection. A hedge goes to the
// lowest-numbered untried replica for the same tie-break reason.
func hedgeClusterOf(t *testing.T, replicas int) (*Cluster, *fakeHedgeTimer, []*FaultInjector, []*Server) {
	t.Helper()
	injs := make([]*FaultInjector, replicas)
	for i := range injs {
		injs[i] = NewFaultInjector()
	}
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: replicas})
	addrs, servers := startShardedCluster(t, m, func(_, replica int) ServerOptions {
		return ServerOptions{Workers: 1, Fault: injs[replica]}
	})
	ft := newFakeHedgeTimer()
	c, err := DialCluster(addrs, ClusterOptions{Topology: m, ProbeInterval: -1, hedgeTimer: ft.hook})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Set(bg, "k", []byte("v"), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return c, ft, injs, servers
}

// The tentpole scenario: the primary replica stalls mid-service, the
// hedge trigger fires, and the hedge to the other replica answers —
// the caller gets its value without waiting out the stall, and the
// fired/won/wasted counters record exactly one winning hedge.
func TestHedgedReadBeatsStalledReplica(t *testing.T) {
	c, ft, injs := hedgeCluster(t)

	injs[0].StallNext(1)
	type got struct {
		val   []byte
		found bool
		err   error
	}
	done := make(chan got, 1)
	before := time.Now()
	go func() {
		v, found, err := c.Get(bg, "k", ReadOptions{
			Hedge: HedgePolicy{Mode: HedgeAdaptive, Delay: 5 * time.Millisecond},
		})
		done <- got{v, found, err}
	}()
	waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
		return injs[0].StalledCount() == 1
	})
	after := time.Now()
	ft.fire()
	g := <-done
	if g.err != nil || !g.found || string(g.val) != "v" {
		t.Fatalf("hedged Get = %q found=%v err=%v", g.val, g.found, g.err)
	}
	if s := c.Stats(); s.HedgesFired != 1 || s.HedgesWon != 1 || s.HedgesWasted != 0 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/1/0", s.HedgesFired, s.HedgesWon, s.HedgesWasted)
	}
	// The primary had no response feedback yet, so the adaptive trigger
	// must have been floored at the configured Delay: the first deadline
	// armed is 5ms after the primary's send, which happened after before
	// and before the stall was seen at after.
	armed := ft.armedAt()
	if len(armed) == 0 {
		t.Fatal("no hedge deadline armed")
	}
	if at := armed[0]; at.Sub(before) < 5*time.Millisecond || at.Sub(after) > 5*time.Millisecond {
		t.Fatalf("first hedge deadline %v after the call began, for a send within %v of it; want the send plus the 5ms cold-start floor", at.Sub(before), after.Sub(before))
	}
	injs[0].Release()
	waitScorerBalanced(t, c) // the abandoned primary attempt unwinds too
}

// A hedge that loses the race is counted wasted, not won: both replicas
// stall, the hedge fires into the second stall, and then the PRIMARY is
// released first and answers.
func TestHedgeWastedWhenPrimaryWins(t *testing.T) {
	c, ft, injs := hedgeCluster(t)

	injs[0].StallNext(1)
	injs[1].StallNext(1)
	type got struct {
		val   []byte
		found bool
		err   error
	}
	done := make(chan got, 1)
	go func() {
		v, found, err := c.Get(bg, "k", ReadOptions{
			Hedge: HedgePolicy{Mode: HedgeAdaptive, Delay: 5 * time.Millisecond},
		})
		done <- got{v, found, err}
	}()
	waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
		return injs[0].StalledCount() == 1
	})
	ft.fire()
	// The hedge is in flight once it too is stalled — proof it was
	// issued before we hand the race to the primary.
	waitFor(t, 5*time.Second, "hedge stalled in service", func() bool {
		return injs[1].StalledCount() == 1
	})
	injs[0].Release()
	g := <-done
	if g.err != nil || !g.found || string(g.val) != "v" {
		t.Fatalf("hedged Get = %q found=%v err=%v", g.val, g.found, g.err)
	}
	if s := c.Stats(); s.HedgesFired != 1 || s.HedgesWon != 0 || s.HedgesWasted != 1 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/0/1", s.HedgesFired, s.HedgesWon, s.HedgesWasted)
	}
	injs[1].Release()
	waitScorerBalanced(t, c) // the wasted hedge unwinds too
}

// A hedge still in flight when its batch's deadline ends the race is
// counted wasted, so every fired hedge is counted won or wasted: both
// replicas stall, the hedge fires into the second stall, and the 300 ms
// deadline lapses with neither released.
func TestHedgeExpiredCountsWasted(t *testing.T) {
	c, ft, injs := hedgeCluster(t)

	injs[0].StallNext(1)
	injs[1].StallNext(1)
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(bg, "k", ReadOptions{
			Timeout: 300 * time.Millisecond,
			Hedge:   HedgePolicy{Mode: HedgeAdaptive, Delay: 5 * time.Millisecond},
		})
		done <- err
	}()
	waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
		return injs[0].StalledCount() == 1
	})
	ft.fire()
	waitFor(t, 5*time.Second, "hedge stalled in service", func() bool {
		return injs[1].StalledCount() == 1
	})
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hedged Get past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if st := c.Stats(); st.HedgesFired != 1 || st.HedgesWon != 0 || st.HedgesWasted != 1 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/0/1", st.HedgesFired, st.HedgesWon, st.HedgesWasted)
	}
	injs[0].Release()
	injs[1].Release()
	waitScorerBalanced(t, c)
}

// HedgeOff (the zero ReadOptions) never arms a trigger: the fake timer
// hook must stay unused however slow a replica is.
func TestHedgeOffArmsNoTimer(t *testing.T) {
	c, ft, _ := hedgeCluster(t)
	for i := 0; i < 5; i++ {
		if _, found, err := c.Get(bg, "k", ReadOptions{}); err != nil || !found {
			t.Fatalf("Get: found=%v err=%v", found, err)
		}
	}
	if armed := ft.armedAt(); len(armed) != 0 {
		t.Fatalf("HedgeOff armed %d trigger timer(s): %v", len(armed), armed)
	}
	if fired := c.Stats().HedgesFired; fired != 0 {
		t.Fatalf("HedgeOff fired %d hedges", fired)
	}
}

// An invalid hedge policy is rejected before any request is issued.
func TestHedgeInvalidPolicyRejected(t *testing.T) {
	c, _, _ := hedgeCluster(t)
	_, err := c.Multiget(bg, []string{"k"}, ReadOptions{Hedge: HedgePolicy{Mode: HedgeMode(42)}})
	if err == nil || !strings.Contains(err.Error(), "unknown hedge mode") {
		t.Fatalf("Multiget with bogus hedge policy: err = %v", err)
	}
}

// getAsync runs a hedged Get of "k" under ctx and delivers its outcome.
func getAsync(ctx context.Context, c *Cluster) <-chan error {
	done := make(chan error, 1)
	go func() {
		v, found, err := c.Get(ctx, "k", ReadOptions{
			Hedge: HedgePolicy{Mode: HedgeAdaptive, Delay: 5 * time.Millisecond},
		})
		if err == nil && (!found || string(v) != "v") {
			err = fmt.Errorf("got %q found=%v, want \"v\"", v, found)
		}
		done <- err
	}()
	return done
}

// The primary's connection dies after the hedge fired: the batch rides
// out the hedge instead of failing over, and the hedge's answer wins.
func TestHedgeWinsAfterPrimaryConnectionDies(t *testing.T) {
	c, ft, injs, servers := hedgeClusterOf(t, 2)

	injs[0].StallNext(1)
	injs[1].StallNext(1)
	done := getAsync(bg, c)
	waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
		return injs[0].StalledCount() == 1
	})
	ft.fire()
	waitFor(t, 5*time.Second, "hedge stalled in service", func() bool {
		return injs[1].StalledCount() == 1
	})
	servers[0].Close()
	waitFor(t, 5*time.Second, "primary marked down", func() bool { return c.ReplicaDown(0, 0) })
	injs[1].Release()
	if err := <-done; err != nil {
		t.Fatalf("hedged Get: %v", err)
	}
	if s := c.Stats(); s.HedgesFired != 1 || s.HedgesWon != 1 || s.HedgesWasted != 0 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/1/0", s.HedgesFired, s.HedgesWon, s.HedgesWasted)
	}
	waitScorerBalanced(t, c)
}

// Both legs die: the batch fails over to the third replica as a new
// primary with a trigger of its own, and the dead hedge counts wasted.
func TestHedgeBothLegsDieFailoverToThird(t *testing.T) {
	c, ft, injs, servers := hedgeClusterOf(t, 3)

	injs[0].StallNext(1)
	injs[1].StallNext(1)
	done := getAsync(bg, c)
	waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
		return injs[0].StalledCount() == 1
	})
	ft.fire()
	waitFor(t, 5*time.Second, "hedge stalled in service", func() bool {
		return injs[1].StalledCount() == 1
	})
	servers[0].Close()
	waitFor(t, 5*time.Second, "primary marked down", func() bool { return c.ReplicaDown(0, 0) })
	servers[1].Close()
	if err := <-done; err != nil {
		t.Fatalf("Get after both legs died: %v", err)
	}
	if !c.ReplicaDown(0, 1) {
		t.Fatal("the hedge's replica is not marked down")
	}
	if s := c.Stats(); s.HedgesFired != 1 || s.HedgesWon != 0 || s.HedgesWasted != 1 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/0/1", s.HedgesFired, s.HedgesWon, s.HedgesWasted)
	}
	if armed := ft.armedAt(); len(armed) != 2 {
		t.Fatalf("armed %d triggers, want 2 (the primary's and the failover's)", len(armed))
	}
	waitScorerBalanced(t, c)
}

// A loser's late answer reaches its replica's EWMA: after the release
// the stalled primary's score carries the answer's feedback rather than
// returning to a cold one. The wait for it is bounded by the call's
// deadline, whether the caller set one or Multiget's default did — not
// by the call's own end, which comes first under a caller with no
// deadline (Multiget then ends the one it derived when it returns).
func TestHedgeLoserFeedsScorer(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"caller deadline", func() (context.Context, context.CancelFunc) { return context.WithTimeout(bg, 10*time.Second) }},
		{"caller cancel only", func() (context.Context, context.CancelFunc) { return context.WithCancel(bg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ft, injs := hedgeCluster(t)
			cold := c.ScoreOf(0, 0)

			ctx, cancel := tc.ctx()
			defer cancel()
			injs[0].StallNext(1)
			done := getAsync(ctx, c)
			waitFor(t, 5*time.Second, "primary stalled in service", func() bool {
				return injs[0].StalledCount() == 1
			})
			ft.fire()
			if err := <-done; err != nil {
				t.Fatalf("hedged Get: %v", err)
			}
			if s := c.Stats(); s.HedgesWon != 1 {
				t.Fatalf("hedges won = %d, want 1", s.HedgesWon)
			}
			injs[0].Release()
			waitScorerBalanced(t, c)
			if got := c.ScoreOf(0, 0); got == cold {
				t.Fatalf("primary's score %v after its late answer, want it moved from the cold %v", got, cold)
			}
		})
	}
}
