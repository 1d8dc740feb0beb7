package faas

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Stats summarizes an activation log: the latency distribution and
// fault counters an operator reads off a real platform's dashboard.
type Stats struct {
	// Count is the number of activation attempts summarized.
	Count int
	// Cold, Stragglers and Failed classify the attempts.
	Cold       int
	Stragglers int
	Failed     int
	// P50/P95/P99/Max summarize successful-handler execution times.
	P50, P95, P99, Max time.Duration
	// TotalGB is the billed GB-seconds across the log.
	TotalGB float64
}

// Summarize computes Stats over an activation log (as returned by
// Platform.Activations).
func Summarize(acts []Activation) Stats {
	s := Stats{Count: len(acts)}
	durs := make([]time.Duration, 0, len(acts))
	for _, a := range acts {
		if a.Cold {
			s.Cold++
		}
		if a.Straggler {
			s.Stragglers++
		}
		s.TotalGB += a.BilledGB
		if a.Err != nil {
			s.Failed++
			continue
		}
		durs = append(durs, a.End-a.Start)
	}
	if len(durs) == 0 {
		return s
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	s.P50 = Percentile(durs, 0.50)
	s.P95 = Percentile(durs, 0.95)
	s.P99 = Percentile(durs, 0.99)
	s.Max = durs[len(durs)-1]
	return s
}

// Percentile returns the q-quantile of sorted durations using the
// nearest-rank convention (q in (0, 1]): the smallest value with at
// least q of the sample at or below it.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String renders the summary as one compact block.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "activations: %d (%d cold, %d stragglers, %d failed)\n",
		s.Count, s.Cold, s.Stragglers, s.Failed)
	fmt.Fprintf(&b, "handler time: p50 %v  p95 %v  p99 %v  max %v\n",
		s.P50.Round(time.Millisecond), s.P95.Round(time.Millisecond),
		s.P99.Round(time.Millisecond), s.Max.Round(time.Millisecond))
	fmt.Fprintf(&b, "billed: %.1f GB-s\n", s.TotalGB)
	return b.String()
}
