package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/brb-repro/brb/internal/randx"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram has non-zero stats")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestSingleValue(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(12345)
	if h.Count() != 1 {
		t.Fatalf("Count = %d", h.Count())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		v := h.Quantile(q)
		if relErr(v, 12345) > 0.01 {
			t.Fatalf("Quantile(%v) = %d, want ~12345", q, v)
		}
	}
	if h.Min() != 12345 || h.Max() != 12345 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got-want)) / float64(want)
}

func TestNegativeClamped(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Fatalf("negative record: min=%d count=%d", h.Min(), h.Count())
	}
}

func TestQuantileAccuracyUniform(t *testing.T) {
	h := NewLatencyHistogram()
	const n = 100000
	for i := int64(1); i <= n; i++ {
		h.Record(i * 1000) // 1µs .. 100ms uniform
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := int64(q*n) * 1000
		got := h.Quantile(q)
		if relErr(got, want) > 0.01 {
			t.Fatalf("Quantile(%v) = %d, want %d (±1%%)", q, got, want)
		}
	}
}

func TestQuantileAccuracyHeavyTail(t *testing.T) {
	r := randx.New(99)
	h := NewLatencyHistogram()
	var samples []int64
	bp := randx.BoundedPareto{Alpha: 1.1, L: 100e3, H: 1e9}
	for i := 0; i < 200000; i++ {
		v := int64(bp.Sample(r))
		samples = append(samples, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		want := ExactQuantile(samples, q)
		got := h.Quantile(q)
		if relErr(got, want) > 0.02 {
			t.Fatalf("heavy-tail Quantile(%v) = %d, want %d (±2%%)", q, got, want)
		}
	}
}

func TestMeanSum(t *testing.T) {
	h := NewLatencyHistogram()
	vals := []int64{10, 20, 30, 40}
	var sum int64
	for _, v := range vals {
		h.Record(v)
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}
	if got, want := h.Mean(), float64(sum)/4; got != want {
		t.Fatalf("Mean = %v, want %v", got, want)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewLatencyHistogram(), NewLatencyHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i * 100)
		b.Record(i*100 + 50_000_000)
	}
	a.Merge(b)
	if a.Count() != 2000 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Max() < 50_000_000 {
		t.Fatalf("merged max = %d", a.Max())
	}
	if a.Min() != 0 {
		t.Fatalf("merged min = %d", a.Min())
	}
}

func TestReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(1000)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(5)
	if h.Min() != 5 || h.Max() != 5 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestSummarize(t *testing.T) {
	h := NewLatencyHistogram()
	for i := int64(1); i <= 10000; i++ {
		h.Record(i * 1000)
	}
	s := h.Summarize()
	if s.Count != 10000 {
		t.Fatalf("Count = %d", s.Count)
	}
	if relErr(s.Median, 5_000_000) > 0.01 || relErr(s.P99, 9_900_000) > 0.01 {
		t.Fatalf("summary percentiles off: %+v", s)
	}
	if !strings.Contains(s.String(), "p99=") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestExactQuantile(t *testing.T) {
	s := []int64{5, 1, 4, 2, 3}
	if got := ExactQuantile(s, 0.5); got != 3 {
		t.Fatalf("ExactQuantile(0.5) = %d, want 3", got)
	}
	if got := ExactQuantile(s, 0); got != 1 {
		t.Fatalf("ExactQuantile(0) = %d, want 1", got)
	}
	if got := ExactQuantile(s, 1); got != 5 {
		t.Fatalf("ExactQuantile(1) = %d, want 5", got)
	}
	if got := ExactQuantile(nil, 0.5); got != 0 {
		t.Fatalf("ExactQuantile(nil) = %d, want 0", got)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated its input")
	}
}

// Property: histogram quantiles stay within precision error of exact
// quantiles for arbitrary sample sets.
func TestQuickQuantileError(t *testing.T) {
	f := func(seed uint64) bool {
		r := randx.New(seed)
		h := NewLatencyHistogram()
		var samples []int64
		n := 1000 + r.Intn(2000)
		for i := 0; i < n; i++ {
			v := int64(r.Exp(1e6)) + 1
			samples = append(samples, v)
			h.Record(v)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			exact := ExactQuantile(samples, q)
			if relErr(h.Quantile(q), exact) > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: merge(a,b) has the same quantiles as recording everything into
// one histogram.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		r := randx.New(seed)
		a, b, all := NewLatencyHistogram(), NewLatencyHistogram(), NewLatencyHistogram()
		for i := 0; i < 500; i++ {
			v := int64(r.Exp(5e5))
			if r.Float64() < 0.5 {
				a.Record(v)
			} else {
				b.Record(v)
			}
			all.Record(v)
		}
		a.Merge(b)
		if a.Count() != all.Count() || a.Sum() != all.Sum() {
			return false
		}
		for _, q := range []float64{0.5, 0.95} {
			if a.Quantile(q) != all.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedSet(t *testing.T) {
	var ss SeedSet
	for i := 0; i < 6; i++ {
		h := NewLatencyHistogram()
		for j := int64(1); j <= 1000; j++ {
			h.Record(j * 1000 * int64(i+1))
		}
		ss.Add(h.Summarize())
	}
	if ss.Len() != 6 {
		t.Fatalf("Len = %d", ss.Len())
	}
	med := ss.Median()
	// medians are 500µs,1000µs,...,3000µs → mean 1750µs
	if math.Abs(med.Mean-1750e3)/1750e3 > 0.02 {
		t.Fatalf("cross-seed median mean = %v, want ~1.75e6", med.Mean)
	}
	if med.Std == 0 {
		t.Fatal("cross-seed std = 0 for varying seeds")
	}
}

func TestSeedSetSingle(t *testing.T) {
	var ss SeedSet
	h := NewLatencyHistogram()
	h.Record(1000)
	ss.Add(h.Summarize())
	if ss.Median().Std != 0 {
		t.Fatal("single-seed std must be 0")
	}
}

func TestRowAndTable(t *testing.T) {
	var ss SeedSet
	for i := 0; i < 3; i++ {
		h := NewLatencyHistogram()
		for j := int64(1); j <= 100; j++ {
			h.Record(j * 1e6)
		}
		ss.Add(h.Summarize())
	}
	row := RowFrom("EqualMax-Credits", &ss)
	if row.Seeds != 3 {
		t.Fatalf("Seeds = %d", row.Seeds)
	}
	if math.Abs(row.MedianMS-50) > 1 {
		t.Fatalf("MedianMS = %v, want ~50", row.MedianMS)
	}
	var tbl Table
	tbl.Title = "Figure 2"
	tbl.Add(row)
	tbl.Add(Row{Label: "C3", MedianMS: 1, P95MS: 2, P99MS: 3})
	tbl.SortByP99()
	if tbl.Rows[0].Label != "C3" {
		t.Fatalf("SortByP99 order wrong: %v", tbl.Rows[0].Label)
	}
	out := tbl.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "EqualMax-Credits") {
		t.Fatalf("table output missing content:\n%s", out)
	}
}

func TestRatio(t *testing.T) {
	a := Row{MedianMS: 3, P95MS: 6, P99MS: 4}
	b := Row{MedianMS: 1, P95MS: 2, P99MS: 2}
	m, p95, p99 := Ratio(a, b)
	if m != 3 || p95 != 3 || p99 != 2 {
		t.Fatalf("Ratio = %v %v %v", m, p95, p99)
	}
	_, _, inf := Ratio(a, Row{})
	if !math.IsInf(inf, 1) {
		t.Fatalf("Ratio by zero = %v, want +Inf", inf)
	}
}

func TestMillis(t *testing.T) {
	if Millis(1_500_000) != 1.5 {
		t.Fatalf("Millis = %v", Millis(1_500_000))
	}
}

func BenchmarkRecord(b *testing.B) {
	h := NewLatencyHistogram()
	r := randx.New(1)
	vals := make([]int64, 1024)
	for i := range vals {
		vals[i] = int64(r.Exp(1e6))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&1023])
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := NewLatencyHistogram()
	r := randx.New(1)
	for i := 0; i < 100000; i++ {
		h.Record(int64(r.Exp(1e6)))
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += h.Quantile(0.99)
	}
	_ = sink
}
