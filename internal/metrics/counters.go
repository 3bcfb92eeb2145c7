package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a process-wide monotonic event counter. Counters are cheap
// enough for hot paths (one atomic add) and registered by name so
// operational tooling can snapshot a subsystem's counters by prefix.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.n.Load() }

var counterRegistry sync.Map // string -> *Counter

// GetCounter returns the process-wide counter registered under name,
// creating it on first use. Callers should capture the result in a
// package variable rather than re-resolving per event.
func GetCounter(name string) *Counter {
	if c, ok := counterRegistry.Load(name); ok {
		return c.(*Counter)
	}
	c, _ := counterRegistry.LoadOrStore(name, new(Counter))
	return c.(*Counter)
}

// CounterValue reads a named counter (0 if never registered).
func CounterValue(name string) uint64 {
	if c, ok := counterRegistry.Load(name); ok {
		return c.(*Counter).Load()
	}
	return 0
}

// CountersWithPrefix snapshots every registered counter whose name
// starts with prefix — how tools report one subsystem's counters (say,
// "netstore_hedge_") without enumerating names that may not be
// registered yet in this process.
func CountersWithPrefix(prefix string) map[string]uint64 {
	out := make(map[string]uint64)
	counterRegistry.Range(func(k, v any) bool {
		if name := k.(string); strings.HasPrefix(name, prefix) {
			out[name] = v.(*Counter).Load()
		}
		return true
	})
	return out
}
