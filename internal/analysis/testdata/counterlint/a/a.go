// Fixtures for the counterlint analyzer: naming, literal-ness, and
// package-level-var placement.
package a

import "example.com/brbfix/internal/metrics"

var (
	opsTotal = metrics.GetCounter("fix_a_ops_total")
	dupTotal = metrics.GetCounter("fix_dup_total")
	badName  = metrics.GetCounter("OpsTotal") // want `must match`
)

var counterName = "fix_dynamic_total"

var computed = metrics.GetCounter(counterName) // want `string literal`

func Record() {
	metrics.GetCounter("fix_hot_path_total").Inc() // want `outside a package-level var`
	opsTotal.Inc()
	dupTotal.Inc()
	badName.Inc()
	computed.Inc()
}
