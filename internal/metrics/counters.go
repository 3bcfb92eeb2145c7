package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a process-wide monotonic event counter, registered by name.
// The store counts its events per instance (Cluster.Stats, Server.Stats,
// kv.Durable.Stats); the few counters left here mirror four of those
// counts for readers that look them up by name.
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
