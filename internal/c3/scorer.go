// Package c3 is the replica ranking of C3 (Suresh, Canini, Schmid,
// Feldmann — "C3: Cutting Tail Latency in Cloud Data Stores via Adaptive
// Replica Selection", NSDI 2015): the Score formula and the Scorer that
// keeps its feedback EWMAs, used by the networked cluster client, and the
// hedge-delay quantile. The simulator's C3 strategy is baseline.C3.
package c3

import (
	"math"
	"sync"
)

// Score is C3's replica ranking function, shared verbatim by the
// simulator's baseline.C3 and the networked cluster client:
//
//	score = R̄ − q̄·µ̄/m + (1 + o·n + q̄)³ · µ̄/m
//
// with R̄ the response-time EWMA, q̄ the queue-length EWMA, µ̄ the
// service-time EWMA (floored at 1 ns), o the caller's outstanding
// requests, n the client count (extrapolating local knowledge to
// cluster-wide pressure) and m the server's service concurrency. Lower
// scores rank better.
func Score(respEWMA, svcEWMA, qEWMA float64, outstanding int, clients, concurrency float64) float64 {
	mu := svcEWMA
	if mu < 1 {
		mu = 1
	}
	if concurrency < 1 {
		concurrency = 1
	}
	qHat := 1 + float64(outstanding)*clients + qEWMA
	return respEWMA - qEWMA*mu/concurrency + qHat*qHat*qHat*mu/concurrency
}

// ScorerOptions tune a Scorer; zero values take the published defaults.
type ScorerOptions struct {
	// Alpha is the EWMA smoothing factor (default 0.9, as in baseline.C3).
	Alpha float64
	// Clients is the cluster-wide client count n used to extrapolate the
	// caller's outstanding requests to total server pressure (default 1).
	Clients float64
	// Concurrency is the server's parallel service capacity m — its
	// worker count in netstore terms (default 1).
	Concurrency float64
}

func (o ScorerOptions) withDefaults() ScorerOptions {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		o.Alpha = 0.9
	}
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 1
	}
	return o
}

// Scorer is the engine-independent half of C3: per-replica EWMA state fed
// by real response feedback, ranked with Score. The simulator's baseline.C3
// keeps its own state arrays (it also runs cubic rate control, which a
// real client delegates to the credits controller); the networked
// cluster client (internal/netstore.Cluster) keeps one Scorer per shard.
// Safe for concurrent use.
type Scorer struct {
	opts ScorerOptions

	mu    sync.Mutex
	state []scorerState
	// msgEWMA is the observed cost of one more message to this replica
	// set: the part of a batch's round trip spent outside the server's
	// queue and workers (wire, kernel, goroutine hand-offs). Spread
	// weighs it against the service time a second message would save.
	msgEWMA float64
	haveMsg bool
}

type scorerState struct {
	respEWMA float64
	svcEWMA  float64
	qEWMA    float64
	// devEWMA tracks the mean absolute deviation of response times
	// around respEWMA — the spread estimate behind ResponseQuantile's
	// tail forecasts (hedged-read triggers).
	devEWMA  float64
	outstand int
	haveData bool
}

// NewScorer builds a scorer over the given number of replicas.
func NewScorer(replicas int, opts ScorerOptions) *Scorer {
	return &Scorer{opts: opts.withDefaults(), state: make([]scorerState, replicas)}
}

// Replicas returns the number of replicas tracked.
func (s *Scorer) Replicas() int { return len(s.state) }

// ScoreOf returns the current score of one replica (lower is better).
func (s *Scorer) ScoreOf(replica int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scoreLocked(replica)
}

func (s *Scorer) scoreLocked(replica int) float64 {
	st := &s.state[replica]
	return Score(st.respEWMA, st.svcEWMA, st.qEWMA, st.outstand, s.opts.Clients, s.opts.Concurrency)
}

// Best returns the eligible replica with the lowest score, or -1 if
// eligible admits none. A nil eligible admits every replica. Replicas
// with no feedback yet rank by outstanding pressure alone (their EWMAs
// are zero), so cold starts spread load instead of piling onto replica 0.
func (s *Scorer) Best(eligible func(replica int) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bestLocked(eligible)
}

func (s *Scorer) bestLocked(eligible func(replica int) bool) int {
	best := -1
	var bestScore float64
	for r := range s.state {
		if eligible != nil && !eligible(r) {
			continue
		}
		sc := s.scoreLocked(r)
		if best < 0 || sc < bestScore {
			best, bestScore = r, sc
		}
	}
	return best
}

// InlineReplicas is the replica count up to which Spread and its callers
// keep their per-replica scratch on the stack.
const InlineReplicas = 8

// Spread places the n requests of one sub-task over the eligible
// replicas and counts them outstanding there, as OnSend would: counts[r]
// (len Replicas()) receives how many went to replica r. It returns the
// replica Best ranks first, or -1 if eligible admits none.
//
// Requests are placed one at a time, each on the replica with the
// lowest score given the ones placed before it, so outstanding pressure
// moves later requests to a sibling the way a depleting credit balance
// does. The sub-task stays whole on the first-ranked replica while any
// eligible replica lacks feedback, and whenever a split would not pay
// for its extra message: a sibling keeps its requests only if the
// service time they take off the first replica (their count × its
// service EWMA ÷ Concurrency) exceeds the observed per-message overhead
// (ObserveMessage).
func (s *Scorer) Spread(n int, eligible func(replica int) bool, counts []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [InlineReplicas]bool
	ok := buf[:0]
	if len(s.state) > len(buf) {
		ok = make([]bool, 0, len(s.state))
	}
	warm := s.haveMsg
	for r := range s.state {
		counts[r] = 0
		ok = append(ok, eligible == nil || eligible(r))
		warm = warm && (!ok[r] || s.state[r].haveData)
	}
	admitted := func(r int) bool { return ok[r] }
	first := s.bestLocked(admitted)
	if first < 0 {
		return -1
	}
	if !warm {
		s.state[first].outstand += n
		counts[first] = n
		return first
	}
	for i := 0; i < n; i++ {
		r := s.bestLocked(admitted)
		s.state[r].outstand++
		counts[r]++
	}
	saved := s.state[first].svcEWMA / s.opts.Concurrency // per request moved
	for r, k := range counts {
		if r != first && k > 0 && float64(k)*saved <= s.msgEWMA {
			s.state[r].outstand -= k
			s.state[first].outstand += k
			counts[first] += k
			counts[r] = 0
		}
	}
	return first
}

// OnSend records n requests dispatched to a replica (outstanding grows).
func (s *Scorer) OnSend(replica, n int) {
	s.mu.Lock()
	s.state[replica].outstand += n
	s.mu.Unlock()
}

// OnError unwinds OnSend after a failed dispatch, without folding any
// latency feedback (connection errors say nothing about service times).
func (s *Scorer) OnError(replica, n int) {
	s.mu.Lock()
	st := &s.state[replica]
	st.outstand -= n
	if st.outstand < 0 {
		st.outstand = 0
	}
	s.mu.Unlock()
}

// Observe folds one batch response into the replica's EWMAs: n requests
// completed, respNanos end-to-end batch response time, svcNanos mean
// per-request service time, queueLen the server's reported queue length.
func (s *Scorer) Observe(replica, n int, respNanos, svcNanos float64, queueLen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.state[replica]
	st.outstand -= n
	if st.outstand < 0 {
		st.outstand = 0
	}
	if !st.haveData {
		st.respEWMA, st.svcEWMA, st.qEWMA = respNanos, svcNanos, float64(queueLen)
		// One sample carries no spread information: seed the deviation
		// at the sample itself, a deliberately pessimistic spread that
		// keeps early quantile forecasts wide (so hedges hold back)
		// until real variance data narrows it.
		st.devEWMA = respNanos
		st.haveData = true
		return
	}
	a := s.opts.Alpha
	st.devEWMA = a*st.devEWMA + (1-a)*math.Abs(respNanos-st.respEWMA)
	st.respEWMA = a*st.respEWMA + (1-a)*respNanos
	st.svcEWMA = a*st.svcEWMA + (1-a)*svcNanos
	st.qEWMA = a*st.qEWMA + (1-a)*float64(queueLen)
}

// ObserveMessage folds one batch's per-message overhead — its round
// trip minus the time the server held it — into the scorer's EWMA.
func (s *Scorer) ObserveMessage(overheadNanos float64) {
	if overheadNanos < 0 {
		overheadNanos = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.haveMsg {
		s.msgEWMA, s.haveMsg = overheadNanos, true
		return
	}
	a := s.opts.Alpha
	s.msgEWMA = a*s.msgEWMA + (1-a)*overheadNanos
}

// ResponseQuantile estimates the q-quantile of one replica's response
// time in nanoseconds from its EWMA state, or 0 when the replica has no
// feedback yet (callers should fall back to a configured floor). The
// hedged-read trigger uses it: a batch outstanding past, say, the 0.9
// quantile of what this replica usually takes is probably straggling.
func (s *Scorer) ResponseQuantile(replica int, q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := &s.state[replica]
	if !st.haveData {
		return 0
	}
	return LaplaceQuantile(st.respEWMA, st.devEWMA, q)
}

// LaplaceQuantile is the pure trigger math behind ResponseQuantile: the
// q-quantile of a Laplace distribution with mean mu and mean absolute
// deviation b. The Laplace model is chosen for its closed-form quantile
// in exactly the statistics the scorer already tracks (an EWMA mean and
// an EWMA absolute deviation); its exponential tail is a reasonable —
// and deliberately heavy — stand-in for service-time tails. q is
// clamped to (0, 1); the result is floored at 0 (a latency forecast is
// never negative, however small the mean).
func LaplaceQuantile(mu, b, q float64) float64 {
	const eps = 1e-9
	if q < eps {
		q = eps
	}
	if q > 1-eps {
		q = 1 - eps
	}
	if b < 0 {
		b = 0
	}
	var x float64
	if q <= 0.5 {
		x = mu + b*math.Log(2*q)
	} else {
		x = mu - b*math.Log(2*(1-q))
	}
	if x < 0 {
		return 0
	}
	return x
}

// Reset clears one replica's state — outstanding count and EWMAs — as
// if it had never been observed. The cluster client calls it when it
// revives a replica over a fresh connection: requests outstanding on the
// dead connection will never complete (their Observe never runs), and
// the revived process's service behavior shares nothing with what the
// pre-crash EWMAs measured.
func (s *Scorer) Reset(replica int) {
	s.mu.Lock()
	s.state[replica] = scorerState{}
	s.mu.Unlock()
}

// Outstanding returns the replica's outstanding request count (test hook).
func (s *Scorer) Outstanding(replica int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state[replica].outstand
}
