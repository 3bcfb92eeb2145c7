//go:build race

package netstore

// raceBuild reports whether the race detector is compiled in. Its
// sync.Pool drops a quarter of all Puts at random, so every pooled
// object a path recycles costs allocations again now and then, and the
// allocation bounds allow for that.
const raceBuild = true
