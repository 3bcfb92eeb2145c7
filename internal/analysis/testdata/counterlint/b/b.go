// Cross-package counterlint fixture: fix_dup_total is already owned by
// package a (imported, so a is always analyzed first).
package b

import (
	"example.com/brbfix/counterlint/a"
	"example.com/brbfix/internal/metrics"
)

var dupAgain = metrics.GetCounter("fix_dup_total") // want `already registered`

func Touch() {
	a.Record()
	dupAgain.Inc()
}
