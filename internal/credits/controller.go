package credits

// Controller is BRB's logically-centralized credit controller (paper
// §2.2): it aggregates per-interval demand reports into a smoothed view
// and assigns each client a share of every server's capacity
// proportional to its demand, with a floor so idle clients can ramp up.
// When reported demand exceeds a server's capacity it raises the
// congestion signal the 1 s adaptation loop consumes.
//
// Only the simulator's credits strategy runs it; the networked store has
// no credits path and picks replicas by C3 ranking.
type Controller struct {
	clients, servers int
	// capacityPerNano is one server's service capacity per nanosecond of
	// wall time: cores (a server performs `cores` ns of service work per
	// ns).
	capacityPerNano float64
	// ewma[c][s] smooths the reported per-interval demand.
	ewma [][]float64
	// congested latches demand above capacity until TakeCongestionSignal.
	congested bool
	alpha     float64
	// demandWeight blends equal-share (0) and demand-proportional (1)
	// assignment.
	demandWeight float64
}

// NewController builds a controller for the given tier dimensions.
// capacityPerNano is a server's parallel service capacity (= cores).
func NewController(clients, servers int, capacityPerNano float64) *Controller {
	return &Controller{
		clients:         clients,
		servers:         servers,
		capacityPerNano: capacityPerNano,
		ewma:            mat(clients, servers),
		alpha:           0.5,
		demandWeight:    0.3,
	}
}

// Report folds one interval's demand snapshot (estimated service-ns sent
// per client/server during the interval) into the smoothed demand view.
func (ct *Controller) Report(demand [][]float64) {
	for c := 0; c < ct.clients && c < len(demand); c++ {
		for s := 0; s < ct.servers && s < len(demand[c]); s++ {
			ct.ewma[c][s] = ct.alpha*ct.ewma[c][s] + (1-ct.alpha)*demand[c][s]
		}
	}
}

// AllocateInterval returns the per-(client, server) credit assignment for
// the next interval of the given length, in service-nanoseconds,
// proportional to smoothed demand. It also evaluates the congestion
// signal: aggregate smoothed demand above a server's capacity latches the
// signal until TakeCongestionSignal.
func (ct *Controller) AllocateInterval(intervalNanos float64) [][]float64 {
	alloc := mat(ct.clients, ct.servers)
	capacity := ct.capacityPerNano * intervalNanos
	equal := capacity / float64(ct.clients)
	for s := 0; s < ct.servers; s++ {
		var total float64
		for c := 0; c < ct.clients; c++ {
			total += ct.ewma[c][s]
		}
		if total > capacity {
			ct.congested = true
		}
		for c := 0; c < ct.clients; c++ {
			prop := 0.0
			if total > 0 {
				prop = ct.ewma[c][s] / total
			} else {
				prop = 1 / float64(ct.clients)
			}
			// Blend an equal share with the demand-proportional share:
			// pure proportionality is a positive feedback loop (more
			// demand -> more credits -> placement prefers the server),
			// which herds clients onto hot servers; the equal component
			// keeps balances meaningful as a local load signal.
			alloc[c][s] = (1-ct.demandWeight)*equal + ct.demandWeight*capacity*prop
		}
	}
	return alloc
}

// TakeCongestionSignal returns whether congestion was detected since the
// last call, clearing the latch.
func (ct *Controller) TakeCongestionSignal() bool {
	c := ct.congested
	ct.congested = false
	return c
}

// ResetHistory drops the smoothed demand view (used by the 1 s adaptation
// on congestion so assignments re-converge from fresh measurements).
func (ct *Controller) ResetHistory() {
	for c := range ct.ewma {
		for s := range ct.ewma[c] {
			ct.ewma[c][s] = 0
		}
	}
}

// Congested exposes the current latch state without clearing it (tests).
func (ct *Controller) Congested() bool { return ct.congested }
