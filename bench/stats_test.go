package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) || s.N != 10 {
		t.Fatalf("summarize(1..10) = %+v, want q1 2.75 median 5.5 q3 8.25 n 10", s)
	}
	if got := s.spread(); !near(got, 1.0) {
		t.Errorf("spread = %v, want 1 (5.5 wide over a median of 5.5)", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize(3 values) = %+v, want 1 2 3", s)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: Python
	// extrapolates; we clamp to the sample's range.
	s = summarize([]float64{1, 2})
	if s.Q1 != 1 || s.Median != 1.5 || s.Q3 != 2 {
		t.Errorf("summarize(2 values) = %+v, want 1 1.5 2", s)
	}
	if s := summarize([]float64{7}); s.Q1 != 7 || s.Median != 7 || s.Q3 != 7 || s.spread() != 0 {
		t.Errorf("summarize(1 value) = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{4}, 4}, {[]float64{9, 1}, 5}, {[]float64{3, 9, 1}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// ramp returns 1..n, so the value at rank r is r.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
		wantV float64
		ok    bool
	}{
		{100000, 0.999, 99900, true}, // 100 beyond
		{10010, 0.999, 10000, true},  // exactly 10 beyond
		{10000, 0.999, 9990, true},   // rank 9990: exactly 10 beyond
		{9999, 0.99, 9900, true},     // p99.9 would leave 9 beyond
		{2000, 0.99, 1980, true},     // 20 beyond
		{999, 0.9, 900, true},        // p99 would leave 9 beyond
		{100, 0.9, 90, true},         // exactly 10 beyond
		{99, 0, 0, false},            // p90 would leave 9 beyond
		{0, 0, 0, false},
	} {
		q, v, ok := tailPercentile(ramp(c.n))
		if q != c.wantQ || v != c.wantV || ok != c.ok {
			t.Errorf("tailPercentile(n=%d) = (%v, %v, %v), want (%v, %v, %v)", c.n, q, v, ok, c.wantQ, c.wantV, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ramp(10)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0, 1}} {
		if got := percentileNearestRank(xs, c.q); got != c.want {
			t.Errorf("percentileNearestRank(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentileNearestRank(nil, 0.5); got != 0 {
		t.Errorf("percentileNearestRank(nil) = %v, want 0", got)
	}
}
