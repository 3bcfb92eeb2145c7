package netstore

import "sync/atomic"

// forecastScale converts a client's cost forecasts into the servers'
// nanoseconds. The Priority discipline adds wire priorities to receipt
// times, so priorities must be in the unit servers measure service in; a
// CostModel only promises relative order (its default, 1 µs + 1 ns/byte,
// is far below any injected ServiceDelay). The scale is what servers
// reported over what the client forecast — total BatchResp.ServiceNanos
// over the total forecast cost of the batches answered so far — and 1
// until the first answer. Totals, not a moving average: a cost model's
// error is a property of the deployment, and a scale that moved with
// every batch would reorder tasks by when they were issued.
type forecastScale struct {
	svc, cost atomic.Int64
}

// observe folds one fully served batch into the totals.
func (f *forecastScale) observe(serviceNanos, forecast int64) {
	if serviceNanos > 0 && forecast > 0 {
		f.svc.Add(serviceNanos)
		f.cost.Add(forecast)
	}
}

// factor returns the current multiplier from forecast units to server
// nanoseconds.
func (f *forecastScale) factor() float64 {
	cost := f.cost.Load()
	if cost == 0 {
		return 1
	}
	return float64(f.svc.Load()) / float64(cost)
}
