package baseline

import (
	"testing"

	"github.com/brb-repro/brb/internal/engine"
	"github.com/brb-repro/brb/internal/sim"
)

func TestC3OptionsDefaults(t *testing.T) {
	o := C3Options{}.withDefaults()
	if o.Alpha != 0.9 || o.Beta != 0.2 {
		t.Fatalf("alpha/beta = %v/%v", o.Alpha, o.Beta)
	}
	if o.RateInterval != 20*sim.Millisecond {
		t.Fatalf("RateInterval = %v", o.RateInterval)
	}
	if o.SMax != 200 || o.CubicC != 0.000004 {
		t.Fatalf("SMax/CubicC = %v/%v", o.SMax, o.CubicC)
	}
}

func TestC3ScorePenalizesQueues(t *testing.T) {
	cfg := smallConfig()
	s := NewC3(C3Options{})
	// Run briefly to get a context, then inspect scoring directly.
	if _, err := engine.Run(cfg, s); err != nil {
		t.Fatal(err)
	}
	// After the run s.ctx is populated. Outstanding load must raise the
	// score (make the server less attractive).
	base := s.score(0, 0)
	s.state[0][0].outstand += 10
	loaded := s.score(0, 0)
	if loaded <= base {
		t.Fatalf("score with outstanding=10 (%v) not above base (%v)", loaded, base)
	}
	s.state[0][0].outstand = 0
	s.state[0][0].qEWMA += 20
	queued := s.score(0, 0)
	if queued <= base {
		t.Fatalf("score with qEWMA+20 (%v) not above base (%v)", queued, base)
	}
}

func TestC3FeedbackUpdatesEWMA(t *testing.T) {
	cfg := smallConfig()
	s := NewC3(C3Options{})
	if _, err := engine.Run(cfg, s); err != nil {
		t.Fatal(err)
	}
	touched := 0
	for c := range s.state {
		for sv := range s.state[c] {
			if s.state[c][sv].haveData {
				touched++
			}
		}
	}
	if touched == 0 {
		t.Fatal("no replica state ever received feedback")
	}
}
