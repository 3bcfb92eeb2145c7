//go:build !race

package netstore

// raceBuild reports whether the race detector is compiled in (see
// race_test.go).
const raceBuild = false
