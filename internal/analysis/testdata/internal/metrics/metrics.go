// Package metrics mirrors the real registry's GetCounter entry point for
// the counterlint fixtures.
package metrics

// Counter is a registered event counter.
type Counter struct{ v uint64 }

func (c *Counter) Inc() { c.v++ }

var registry = map[string]*Counter{}

// GetCounter resolves (registering on first use) the named counter.
func GetCounter(name string) *Counter {
	if c, ok := registry[name]; ok {
		return c
	}
	c := &Counter{}
	registry[name] = c
	return c
}
