package netstore

// Hedged-read tests. The timing-sensitive scenarios are fully
// deterministic: the hedge trigger is a fake timer the test fires by
// hand (ClusterOptions.hedgeTimer), and replica slowness is a
// FaultInjector stall gate the test observes and releases — no real
// clock anywhere near the assertions.

import (
	"context"
	"errors"
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
		{"fixed defaults", HedgePolicy{Mode: HedgeFixed}, ""},
		{"adaptive full", HedgePolicy{Mode: HedgeAdaptive, Delay: time.Millisecond, Quantile: 0.99}, ""},
		{"quantile lower edge", HedgePolicy{Mode: HedgeAdaptive, Quantile: 0}, ""},
		{"unknown mode", HedgePolicy{Mode: HedgeMode(42)}, "unknown hedge mode"},
		{"negative delay", HedgePolicy{Mode: HedgeFixed, Delay: -time.Second}, "negative hedge delay"},
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
	set := HedgePolicy{Mode: HedgeFixed, Delay: 7 * time.Millisecond, Quantile: 0.5}
	if got := set.withDefaults(); got != set {
		t.Fatalf("withDefaults() clobbered explicit fields: %+v", got)
	}
}

func TestHedgeModeString(t *testing.T) {
	for mode, want := range map[HedgeMode]string{
		HedgeOff:      "off",
		HedgeFixed:    "fixed",
		HedgeAdaptive: "adaptive",
		HedgeMode(9):  "HedgeMode(9)",
	} {
		if got := mode.String(); got != want {
			t.Errorf("HedgeMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

// triggerDelay: fixed mode ignores the scorer; adaptive mode takes the
// replica's forecast quantile but never less than the configured floor
// (a cold replica forecasts 0 and must not hedge instantly).
func TestHedgeTriggerDelay(t *testing.T) {
	s := c3.NewScorer(2, c3.ScorerOptions{})
	// Train replica 1 on a tight 10ms response distribution; leave
	// replica 0 cold.
	for i := 0; i < 50; i++ {
		s.OnSend(1, 1)
		s.Observe(1, 1, float64(10*time.Millisecond), float64(time.Millisecond), 0)
	}

	fixed := HedgePolicy{Mode: HedgeFixed, Delay: 3 * time.Millisecond}.withDefaults()
	if got := fixed.triggerDelay(s, 1); got != 3*time.Millisecond {
		t.Fatalf("fixed trigger = %v, want 3ms regardless of scorer", got)
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
// every armed duration and exposes one shared unbuffered channel, so
// fire() both triggers the hedge and synchronizes with hedgedBatch's
// select (the send cannot complete until the trigger is being waited
// on).
type fakeHedgeTimer struct {
	mu    sync.Mutex
	armed []time.Duration
	ch    chan time.Time
}

func newFakeHedgeTimer() *fakeHedgeTimer {
	return &fakeHedgeTimer{ch: make(chan time.Time)}
}

func (ft *fakeHedgeTimer) hook(d time.Duration) (<-chan time.Time, func()) {
	ft.mu.Lock()
	ft.armed = append(ft.armed, d)
	ft.mu.Unlock()
	return ft.ch, func() {}
}

func (ft *fakeHedgeTimer) fire() { ft.ch <- time.Now() }

func (ft *fakeHedgeTimer) armedDelays() []time.Duration {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return append([]time.Duration(nil), ft.armed...)
}

// hedgeCluster builds a 1-shard × 2-replica cluster with a FaultInjector
// on each replica and a hand-fired hedge timer, loads one key, and
// returns the pieces. Its scorer is cold — nothing read yet — so a
// read's first attempt goes to replica 0, the primary: with no feedback
// and nothing outstanding every replica scores the same, and
// c3.Scorer.Best breaks ties by index.
func hedgeCluster(t *testing.T) (*Cluster, *fakeHedgeTimer, [2]*FaultInjector) {
	t.Helper()
	var injs [2]*FaultInjector
	for i := range injs {
		injs[i] = NewFaultInjector()
	}
	m := cluster.MustNewShardTopology(cluster.ShardConfig{Shards: 1, Replicas: 2})
	addrs, _ := startShardedCluster(t, m, func(_, replica int) ServerOptions {
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
	return c, ft, injs
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
	g := <-done
	if g.err != nil || !g.found || string(g.val) != "v" {
		t.Fatalf("hedged Get = %q found=%v err=%v", g.val, g.found, g.err)
	}
	if fired, won, wasted := c.HedgesFired(), c.HedgesWon(), c.HedgesWasted(); fired != 1 || won != 1 || wasted != 0 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/1/0", fired, won, wasted)
	}
	// The primary had no response feedback yet, so the adaptive trigger
	// must have been floored at the configured Delay.
	if armed := ft.armedDelays(); len(armed) == 0 || armed[0] != 5*time.Millisecond {
		t.Fatalf("armed trigger delays = %v, want the 5ms cold-start floor first", armed)
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
			Hedge: HedgePolicy{Mode: HedgeFixed, Delay: 5 * time.Millisecond},
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
	if fired, won, wasted := c.HedgesFired(), c.HedgesWon(), c.HedgesWasted(); fired != 1 || won != 0 || wasted != 1 {
		t.Fatalf("hedge counters fired=%d won=%d wasted=%d, want 1/0/1", fired, won, wasted)
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
			Hedge:   HedgePolicy{Mode: HedgeFixed, Delay: 5 * time.Millisecond},
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
	if armed := ft.armedDelays(); len(armed) != 0 {
		t.Fatalf("HedgeOff armed %d trigger timer(s): %v", len(armed), armed)
	}
	if fired := c.HedgesFired(); fired != 0 {
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
