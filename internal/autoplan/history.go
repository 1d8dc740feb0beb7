package autoplan

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// History accumulates measured run outcomes per strategy family and
// turns them into multiplicative calibration factors the planner
// applies to its analytic predictions. This closes the regret loop the
// PlannerRegret experiment measures: the first decision in a session
// is pure arithmetic over the profiles, every later decision is that
// arithmetic corrected by what the simulation actually did.
//
// Factors are geometric means of the observed actual/predicted ratios,
// clamped to [0.2, 5] so one pathological observation cannot flip every
// later plan. A family with no observations keeps factor 1 (the raw
// model). History is not safe for concurrent mutation; like the rest of
// the execution state it is only written from simulation process
// context, one process at a time.
type History struct {
	byStrategy map[Strategy]*familyStats
}

type familyStats struct {
	n       int
	logTime float64 // sum of ln(actualTime/predictedTime)
	logCost float64 // sum of ln(actualUSD/predictedUSD)
	costN   int     // cost observations (cost pairs may be absent)
}

// Observation is one measured run of a planned candidate.
type Observation struct {
	// Strategy is the family that executed.
	Strategy Strategy
	// PredictedTime/ActualTime are the planner's estimate and the
	// measured virtual completion time.
	PredictedTime, ActualTime time.Duration
	// PredictedUSD/ActualUSD are the planner's estimate and the metered
	// spend (either may be zero when unknown; such pairs are skipped).
	PredictedUSD, ActualUSD float64
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{byStrategy: make(map[Strategy]*familyStats)}
}

// Record folds one measured outcome in. Pairs with a non-positive
// prediction or measurement are ignored — a ratio against zero carries
// no calibration signal.
func (h *History) Record(o Observation) {
	if h == nil {
		return
	}
	if h.byStrategy == nil {
		h.byStrategy = make(map[Strategy]*familyStats)
	}
	fs := h.byStrategy[o.Strategy]
	if fs == nil {
		fs = &familyStats{}
		h.byStrategy[o.Strategy] = fs
	}
	if o.PredictedTime > 0 && o.ActualTime > 0 {
		fs.n++
		fs.logTime += math.Log(o.ActualTime.Seconds() / o.PredictedTime.Seconds())
	}
	if o.PredictedUSD > 0 && o.ActualUSD > 0 {
		fs.costN++
		fs.logCost += math.Log(o.ActualUSD / o.PredictedUSD)
	}
}

// factorBounds clamp calibration so feedback stays a correction, not a
// runaway.
const (
	minFactor = 0.2
	maxFactor = 5.0
)

func clampFactor(logSum float64, n int) float64 {
	if n == 0 {
		return 1
	}
	f := math.Exp(logSum / float64(n))
	if f < minFactor {
		return minFactor
	}
	if f > maxFactor {
		return maxFactor
	}
	return f
}

// stats returns the family's sums (zero with no observations).
func (h *History) stats(s Strategy) familyStats {
	if h == nil || h.byStrategy[s] == nil {
		return familyStats{}
	}
	return *h.byStrategy[s]
}

// TimeFactor returns the multiplier for the family's predicted time
// (1 with no observations).
func (h *History) TimeFactor(s Strategy) float64 {
	fs := h.stats(s)
	return clampFactor(fs.logTime, fs.n)
}

// CostFactor returns the multiplier for the family's predicted cost
// (1 with no observations).
func (h *History) CostFactor(s Strategy) float64 {
	fs := h.stats(s)
	return clampFactor(fs.logCost, fs.costN)
}

// Observations reports how many time observations the family has.
func (h *History) Observations(s Strategy) int { return h.stats(s).n }

// Len reports the total observation count across families.
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	total := 0
	for _, fs := range h.byStrategy {
		total += fs.n
	}
	return total
}

// String renders the calibration state, one family per line.
func (h *History) String() string {
	if h.Len() == 0 && (h == nil || len(h.byStrategy) == 0) {
		return "planner history: no observations\n"
	}
	strategies := make([]Strategy, 0, len(h.byStrategy))
	for s := range h.byStrategy {
		strategies = append(strategies, s)
	}
	sort.Slice(strategies, func(i, j int) bool { return strategies[i] < strategies[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "planner history (%d observations)\n", h.Len())
	for _, s := range strategies {
		fmt.Fprintf(&b, "  %-14s time x%.3f  cost x%.3f  (n=%d)\n",
			s, h.TimeFactor(s), h.CostFactor(s), h.Observations(s))
	}
	return b.String()
}

// familyStatsJSON is one family's serialized calibration state: the
// raw geometric sums, not the derived factors.
type familyStatsJSON struct {
	N       int     `json:"n"`
	LogTime float64 `json:"logTime"`
	CostN   int     `json:"costN"`
	LogCost float64 `json:"logCost"`
}

// MarshalJSON serializes the calibration state keyed by strategy name,
// so it stays readable and stable across Strategy renumbering.
func (h *History) MarshalJSON() ([]byte, error) {
	out := make(map[string]familyStatsJSON, len(h.byStrategy))
	for s, fs := range h.byStrategy {
		out[s.String()] = familyStatsJSON{
			N: fs.n, LogTime: fs.logTime, CostN: fs.costN, LogCost: fs.logCost,
		}
	}
	return json.Marshal(out)
}

// calibrate applies the history's factors to a freshly predicted
// candidate; infeasible candidates pass through untouched.
func (h *History) calibrate(c Candidate) Candidate {
	if h == nil || !c.Feasible {
		return c
	}
	c.Time = time.Duration(float64(c.Time) * h.TimeFactor(c.Strategy))
	c.CostUSD *= h.CostFactor(c.Strategy)
	return c
}
