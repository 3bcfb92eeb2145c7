package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of vs (0 for no
// samples). It sorts a copy.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median averages the middle pair of an even-sized sample, as the
// acceptance check's medians do.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// ratio is a/b, 0 when b is 0: a share of nothing is reported as none.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// iqrSpread is the run-to-run spread the acceptance check uses: the
// distance between the first and third quartile as a share of the
// median (Python's statistics.quantiles(n=4), exclusive method). Fewer
// than two values have no spread to measure; callers must not read
// the 0 as steadiness.
func iqrSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		// exclusive method: position p·(n+1), 1-based, clamped
		pos := p*float64(len(s)+1) - 1
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= len(s)-1 {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return ratio(at(0.75)-at(0.25), at(0.5))
}

// series is a set of timed samples: values with the phase time (ns)
// each belongs to.
type series struct {
	vs []float64
	at []int64
}

func (s *series) add(at int64, v float64) {
	s.vs = append(s.vs, v)
	s.at = append(s.at, at)
}

func (s *series) len() int { return len(s.vs) }

// quantile is the q-quantile over every sample.
func (s *series) quantile(q float64) float64 { return quantile(s.vs, q) }

// statWindows is how many equal time windows a phase is cut into for
// windowed: at the benchmark's 20 s and 500 ops/s a window holds 1000
// samples, ten of them beyond its p99.
const statWindows = 10

// windowed is the median, over the statWindows equal time windows of
// [from, to), of stat applied to each window's samples; windows without
// samples are left out. It is a run of statWindows short runs reported
// by their median, as the driver reports ten runs by theirs: the
// development host stalls for 20–200 ms a few times a minute, one such
// stall holds 1 % of a phase's ops, and headline-fifo's whole-run p99
// ranged 24–187 ms over ten seeds with them. What touches fewer than
// half of the windows does not move this number; it moves the
// whole-run quantile, which is reported beside it without a bound.
func (s *series) windowed(from, to int64, stat func([]float64) float64) float64 {
	if len(s.vs) == 0 || to <= from {
		return 0
	}
	windows := make([][]float64, statWindows)
	for i, v := range s.vs {
		w := int(float64(s.at[i]-from) / float64(to-from) * statWindows)
		w = min(max(w, 0), statWindows-1)
		windows[w] = append(windows[w], v)
	}
	var stats []float64
	for _, vs := range windows {
		if len(vs) > 0 {
			stats = append(stats, stat(vs))
		}
	}
	return median(stats)
}

// p99 and tailRatio are the two window statistics reported: a window's
// p99, and that p99 as a multiple of the same window's median.
func p99(vs []float64) float64 { return quantile(vs, 0.99) }

func tailRatio(vs []float64) float64 { return ratio(quantile(vs, 0.99), quantile(vs, 0.5)) }
