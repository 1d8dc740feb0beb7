package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the two
// quartiles and the sample count. No tail percentile is claimed from a
// handful of reps; tailPercentile below is for the 100k-sample sojourn
// distribution only.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the median and quartiles of xs. Quartiles use the
// same "exclusive" method as Python's statistics.quantiles(n=4), which
// is what the acceptance driver applies to our per-run values, so the
// spreads -compare prints are the spreads the driver sees.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := sortedCopy(xs)
	return summary{
		Median: quantileExclusive(s, 0.5),
		Q1:     quantileExclusive(s, 0.25),
		Q3:     quantileExclusive(s, 0.75),
		N:      len(s),
	}
}

// spread is the inter-quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantileExclusive(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileExclusive interpolates at position q*(n+1) (1-based) in the
// sorted sample, clamped to the sample's range.
func quantileExclusive(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n+1)
	lo := int(math.Floor(pos))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// tailRungs are the percentiles a latency distribution may claim, from
// the deepest down. p99.9 is the deepest this benchmark names (the
// sojourn tail at 100k tickets, 100 samples beyond it).
var tailRungs = []float64{0.999, 0.99, 0.9}

// tailPercentile returns the highest rung of tailRungs that still has
// at least ten samples beyond it, with its value (nearest-rank). With
// fewer than 100 samples no rung qualifies and ok is false.
func tailPercentile(sorted []float64) (q, value float64, ok bool) {
	n := len(sorted)
	for _, r := range tailRungs {
		rank := int(math.Ceil(r * float64(n))) // 1-based nearest rank
		if n-rank >= 10 {
			return r, sorted[rank-1], true
		}
	}
	return 0, 0, false
}

// percentileNearestRank is the plain nearest-rank percentile.
func percentileNearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
