package c3

import (
	"math"
	"testing"
)

func TestScoreFormula(t *testing.T) {
	// Hand-computed: resp=100, svc=10, q=2, out=1, n=2, m=1:
	// qHat = 1 + 1*2 + 2 = 5; score = 100 - 2*10 + 125*10 = 1330.
	if got := Score(100, 10, 2, 1, 2, 1); got != 1330 {
		t.Fatalf("Score = %v, want 1330", got)
	}
	// Service-time floor at 1 ns.
	if got := Score(0, 0, 0, 0, 1, 1); got != 1 {
		t.Fatalf("Score floor = %v, want 1", got)
	}
	// Concurrency divides the queue terms.
	if a, b := Score(0, 8, 4, 0, 1, 1), Score(0, 8, 4, 0, 1, 4); b >= a {
		t.Fatalf("higher concurrency did not lower score: %v vs %v", a, b)
	}
}

// TestScorerMatchesStrategyFormula pins the Scorer to the exact formula
// the simulation strategy uses, so the sim and the real client can never
// drift apart.
func TestScorerMatchesStrategyFormula(t *testing.T) {
	sc := NewScorer(1, ScorerOptions{Alpha: 0.9, Clients: 18, Concurrency: 4})
	sc.OnSend(0, 3)
	sc.Observe(0, 1, 5000, 800, 7)
	// After first observation: EWMAs snap to the sample, outstanding 2.
	want := Score(5000, 800, 7, 2, 18, 4)
	if got := sc.ScoreOf(0); got != want {
		t.Fatalf("ScoreOf = %v, want %v", got, want)
	}
	// Second observation folds with alpha.
	sc.Observe(0, 1, 9000, 1000, 3)
	want = Score(0.9*5000+0.1*9000, 0.9*800+0.1*1000, 0.9*7+0.1*3, 1, 18, 4)
	if got := sc.ScoreOf(0); math.Abs(got-want) > 1e-6 {
		t.Fatalf("folded ScoreOf = %v, want %v", got, want)
	}
}

func TestScorerBestPrefersFastReplica(t *testing.T) {
	sc := NewScorer(3, ScorerOptions{})
	// Replica 0 slow, 1 fast, 2 medium.
	for i := 0; i < 20; i++ {
		sc.Observe(0, 0, 50_000_000, 2_000_000, 10)
		sc.Observe(1, 0, 1_000_000, 100_000, 0)
		sc.Observe(2, 0, 10_000_000, 500_000, 3)
	}
	if best := sc.Best(nil); best != 1 {
		t.Fatalf("Best = %d, want 1", best)
	}
	// Eligibility filter excludes the winner.
	best := sc.Best(func(r int) bool { return r != 1 })
	if best != 2 {
		t.Fatalf("filtered Best = %d, want 2", best)
	}
	if best := sc.Best(func(int) bool { return false }); best != -1 {
		t.Fatalf("empty Best = %d, want -1", best)
	}
}

func TestScorerOutstandingBalancesColdStart(t *testing.T) {
	sc := NewScorer(2, ScorerOptions{Clients: 4})
	sc.OnSend(0, 5)
	if best := sc.Best(nil); best != 1 {
		t.Fatalf("cold-start Best = %d, want the idle replica 1", best)
	}
	sc.OnError(0, 5)
	if got := sc.Outstanding(0); got != 0 {
		t.Fatalf("Outstanding after OnError = %d, want 0", got)
	}
	// OnError must not fold latency data: both replicas still cold-equal.
	if a, b := sc.ScoreOf(0), sc.ScoreOf(1); a != b {
		t.Fatalf("OnError perturbed score: %v vs %v", a, b)
	}
}

func TestScorerReset(t *testing.T) {
	sc := NewScorer(2, ScorerOptions{})
	// Replica 0 accumulates bad feedback and stranded outstanding work
	// (an OnSend whose Observe never arrives — a dead connection).
	sc.OnSend(0, 8)
	sc.Observe(0, 2, 50_000_000, 2_000_000, 9)
	if sc.Outstanding(0) != 6 {
		t.Fatalf("Outstanding = %d, want 6", sc.Outstanding(0))
	}
	sc.Reset(0)
	if sc.Outstanding(0) != 0 {
		t.Fatalf("Outstanding after Reset = %d, want 0", sc.Outstanding(0))
	}
	// Reset state ranks like a never-observed replica.
	if a, b := sc.ScoreOf(0), sc.ScoreOf(1); a != b {
		t.Fatalf("Reset replica scores %v, untouched cold replica %v", a, b)
	}
}

// warmPair returns a two-replica scorer (two workers per server) whose
// replicas both report svc-long requests and which has seen one
// message's overhead.
func warmPair(svc, overhead float64) *Scorer {
	sc := NewScorer(2, ScorerOptions{Concurrency: 2})
	for r := 0; r < 2; r++ {
		sc.Observe(r, 0, svc+overhead, svc, 0)
	}
	sc.ObserveMessage(overhead)
	return sc
}

func TestScorerSpread(t *testing.T) {
	counts := make([]int, 2)
	// Two idle, equal replicas, 1 ms requests behind a 0.1 ms message:
	// outstanding pressure alternates the eight requests between them.
	sc := warmPair(1e6, 1e5)
	if first := sc.Spread(8, nil, counts); first != 0 || counts[0] != 4 || counts[1] != 4 {
		t.Fatalf("Spread over idle pair = first %d counts %v, want 0 [4 4]", first, counts)
	}
	if a, b := sc.Outstanding(0), sc.Outstanding(1); a != 4 || b != 4 {
		t.Fatalf("Outstanding after Spread = %d, %d, want 4, 4", a, b)
	}
	// The sibling is already loaded by that spread: the next sub-task
	// leans on whichever replica ranks better, and still sums to n.
	sc.OnError(0, 4)
	if first := sc.Spread(3, nil, counts); first != 0 || counts[0]+counts[1] != 3 || counts[0] < counts[1] {
		t.Fatalf("Spread beside a loaded sibling = first %d counts %v, want most of 3 on replica 0", first, counts)
	}
	// Eligibility: a lone admitted replica takes the sub-task whole.
	sc = warmPair(1e6, 1e5)
	if first := sc.Spread(8, func(r int) bool { return r == 1 }, counts); first != 1 || counts[0] != 0 || counts[1] != 8 {
		t.Fatalf("Spread with one eligible replica = first %d counts %v, want 1 [0 8]", first, counts)
	}
	if first := sc.Spread(8, func(int) bool { return false }, counts); first != -1 {
		t.Fatalf("Spread with no eligible replica = %d, want -1", first)
	}
}

func TestScorerSpreadKeepsWhole(t *testing.T) {
	counts := make([]int, 2)
	whole := func(what string, sc *Scorer, n int) {
		t.Helper()
		first := sc.Spread(n, nil, counts)
		if first < 0 || counts[first] != n || counts[1-first] != 0 {
			t.Fatalf("%s: Spread = first %d counts %v, want all %d on the first-ranked replica", what, first, counts, n)
		}
		if got := sc.Outstanding(first); got != n {
			t.Fatalf("%s: Outstanding(first) = %d, want %d", what, got, n)
		}
	}
	// No feedback at all, no message overhead seen, one replica cold.
	whole("cold scorer", NewScorer(2, ScorerOptions{Concurrency: 2}), 8)
	sc := NewScorer(2, ScorerOptions{Concurrency: 2})
	sc.Observe(0, 0, 1e6, 1e6, 0)
	sc.Observe(1, 0, 1e6, 1e6, 0)
	whole("no overhead observed", sc, 8)
	sc = NewScorer(2, ScorerOptions{Concurrency: 2})
	sc.Observe(0, 0, 1e6, 1e6, 0)
	sc.ObserveMessage(1e5)
	whole("cold sibling", sc, 8)
	// A split must pay for its message: 0.4 µs of service per request
	// against 100 µs per message never does …
	whole("service far below overhead", warmPair(400, 1e5), 40)
	// … and at 30 µs per request (15 µs saved per request moved, two
	// workers) eight requests would move four, saving 60 µs < 100 µs.
	whole("moved share below overhead", warmPair(3e4, 1e5), 8)
	// Sixteen requests move eight: 120 µs saved, the split stays.
	sc = warmPair(3e4, 1e5)
	if sc.Spread(16, nil, counts); counts[0] != 8 || counts[1] != 8 {
		t.Fatalf("Spread(16) at 30 µs/request = %v, want [8 8]", counts)
	}
}
