package netstore

// Test seams for the hot-key cache. loadgen imports netstore, so a test
// that drives the cache with a generated schedule has to live in the
// external netstore_test package; HotKeyCache hands it the real thing.

// get is the single-key form of serve, the shape the unit tests read
// the cache through.
func (hc *hotKeyCache) get(key string, minVer uint64) ([]byte, bool) {
	var val [1][]byte
	var found [1]bool
	hc.serve([]string{key}, func(string) uint64 { return minVer }, val[:], found[:])
	return val[0], found[0]
}

// HotKeyCache exposes hotKeyCache to external tests.
type HotKeyCache struct{ hc *hotKeyCache }

func NewHotKeyCache(capacity int) HotKeyCache { return HotKeyCache{newHotKeyCache(capacity)} }

func (c HotKeyCache) Serve(keys []string, floor func(string) uint64, vals [][]byte, found []bool) int {
	return c.hc.serve(keys, floor, vals, found)
}
func (c HotKeyCache) Put(key string, val []byte, ver uint64) { c.hc.put(key, val, ver) }
func (c HotKeyCache) Invalidate(key string)                  { c.hc.invalidate(key) }
func (c HotKeyCache) Evictions() uint64                      { return c.hc.evicts.Load() }
func (c HotKeyCache) Rejects() uint64                        { return c.hc.rejects.Load() }

// sizeLearned reports whether c holds a learned value size for key.
func (c *Cluster) sizeLearned(key string) bool {
	c.sizesMu.RLock()
	defer c.sizesMu.RUnlock()
	_, ok := c.sizes[key]
	return ok
}
