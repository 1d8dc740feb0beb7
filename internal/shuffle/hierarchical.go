package shuffle

import (
	"math"

	"github.com/faaspipe/faaspipe/internal/des"
)

// HierSpec describes a two-level (hierarchical) sort job. The one-level
// all-to-all moves w x w intermediate objects; with w workers in g
// groups the exchange becomes w*g objects in round 1 plus g*(w/g)^2 in
// round 2 — minimized near g = sqrt(w) at ~2*w^1.5 total. That trades
// an extra pass of data through the store for far fewer requests, which
// wins once the service's per-request latency and ops throttle dominate
// (large w) — the design extension Primula's line of work (Locus,
// Pocket) motivates.
type HierSpec struct {
	// Spec carries the common job parameters. Workers must be explicit
	// (or left 0 for the hierarchical planner).
	Spec
	// Groups is the number of round-1 groups; it must divide Workers.
	// 0 picks the divisor of Workers nearest sqrt(Workers).
	Groups int
}

// autoGroups picks the divisor of w nearest sqrt(w). Primes degrade to
// 1 (a single group: one coarse pass then a full sort of each range).
func autoGroups(w int) int {
	if w <= 1 {
		return 1
	}
	root := math.Sqrt(float64(w))
	best, bestDist := 1, math.Inf(1)
	for g := 1; g <= w; g++ {
		if w%g != 0 {
			continue
		}
		if d := math.Abs(float64(g) - root); d < bestDist {
			best, bestDist = g, d
		}
	}
	return best
}

// SortHierarchical runs the two-level shuffle, blocking p until the
// sorted output is in place: round 1 sprays every worker's slice into
// one coarse range per group, round 2 repartitions each group's range
// by its fine boundaries and merges. Output parts are globally ordered
// across groups: group j's k parts are parts j*k .. j*k+k-1.
func (op *Operator) SortHierarchical(p *des.Proc, spec HierSpec) (Result, error) {
	return op.sort(p, "hiershuffle", spec.Spec, true, spec.Groups)
}
