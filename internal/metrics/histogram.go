// Package metrics provides latency recording and summarization for BRB
// experiments: an HDR-style log-bucketed histogram for constant-memory
// percentile estimation, an exact reservoir-free recorder for small runs,
// and multi-seed aggregation mirroring the paper's "averaged across
// experiments" reporting (Figure 2 averages 6 seeds).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a log-bucketed latency histogram. Values are int64
// nanoseconds. Buckets grow geometrically: each power-of-two range is split
// into 2^precision linear sub-buckets, bounding relative quantile error to
// ~2^-precision while using a few KiB regardless of sample count.
//
// The zero value is not usable; call NewLatencyHistogram.
type Histogram struct {
	counts   []uint64
	total    uint64
	sum      int64
	min, max int64
}

// precision is the sub-bucket width in bits: 7 gives ≤0.8% relative
// quantile error, and every histogram shares it, so any two merge.
const precision = 7

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *Histogram {
	// 64 exponent ranges × 2^precision sub-buckets covers all of int64.
	return &Histogram{
		counts: make([]uint64, 64<<precision),
		min:    math.MaxInt64,
		max:    math.MinInt64,
	}
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	// Index by position of the highest set bit, then linear within.
	u := uint64(v)
	exp := 0
	for u>>precision != 0 {
		u >>= 1
		exp++
	}
	return exp<<precision | int(u)
}

// bucketValue returns the value reported for bucket i (the inverse of
// bucketIndex): the bucket's midpoint, or the exact value in the linear
// first range.
func bucketValue(i int) int64 {
	exp := i >> precision
	sub := i & ((1 << precision) - 1)
	if exp == 0 {
		return int64(sub)
	}
	// Midpoint of the bucket for low quantile bias.
	lo := int64(sub) << uint(exp)
	width := int64(1) << uint(exp)
	return lo + width/2
}

// Record adds one observation. Negative values are clamped to zero (they
// cannot occur for latencies; clamping keeps the API total).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with relative
// error bounded by the histogram precision. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// Summary is the fixed set of statistics the paper reports (Figure 2 uses
// median/p95/p99), plus mean and extremes for the ablation tables.
type Summary struct {
	Count  uint64
	Mean   float64
	Min    int64
	Median int64
	P95    int64
	P99    int64
	P999   int64
	Max    int64
}

// Summarize extracts a Summary from the histogram.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Mean:   h.Mean(),
		Min:    h.Min(),
		Median: h.Quantile(0.50),
		P95:    h.Quantile(0.95),
		P99:    h.Quantile(0.99),
		P999:   h.Quantile(0.999),
		Max:    h.Max(),
	}
}

// Millis renders a nanosecond value in milliseconds, the unit of Figure 2.
func Millis(ns int64) float64 { return float64(ns) / 1e6 }

// String renders the summary in milliseconds.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms p99.9=%.3fms max=%.3fms",
		s.Count, s.Mean/1e6, Millis(s.Median), Millis(s.P95), Millis(s.P99), Millis(s.P999), Millis(s.Max))
}

// ExactQuantile computes the exact q-quantile of a sample slice (nearest-
// rank). It sorts a copy; intended for tests and small samples where the
// histogram's bounded error is not acceptable.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
