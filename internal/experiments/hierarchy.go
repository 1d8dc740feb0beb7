package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faaspipe/faaspipe/internal/calib"
	"github.com/faaspipe/faaspipe/internal/shuffle"
)

// HierRow is one point of the hierarchy ablation.
type HierRow struct {
	Workers  int
	Groups   int
	OneLevel time.Duration
	TwoLevel time.Duration
	// PredictedOne / PredictedTwo are the planner models' estimates.
	PredictedOne time.Duration
	PredictedTwo time.Duration
}

// HierResult is the two-level shuffle ablation: the one-level
// all-to-all moves w^2 intermediate objects, the hierarchical variant
// ~2*w^1.5 at the price of an extra pass of the data through the
// store — so it loses at the paper's w=8 and wins once per-request
// costs dominate at large w.
type HierResult struct {
	DataBytes int64
	Rows      []HierRow
}

// HierarchySweep measures one-level vs two-level shuffle latency at
// each worker count (groups auto-picked near sqrt(w)).
func HierarchySweep(profile calib.Profile, dataBytes int64, workerCounts []int) (HierResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	res := HierResult{DataBytes: dataBytes}
	for _, w := range workerCounts {
		one, err := measureShuffle(profile, dataBytes, w)
		if err != nil {
			return res, fmt.Errorf("experiments: hier sweep one-level w=%d: %w", w, err)
		}
		two, err := measureSort(profile, dataBytes, sortOnly{workers: w, hierarchical: true})
		if err == nil {
			err = two.sortErr
		}
		if err != nil {
			return res, fmt.Errorf("experiments: hier sweep two-level w=%d: %w", w, err)
		}
		in := planInput(profile, dataBytes)
		sp := shuffle.ProfileOf(profile.Store)
		res.Rows = append(res.Rows, HierRow{
			Workers:      w,
			Groups:       two.groups,
			OneLevel:     one,
			TwoLevel:     two.latency,
			PredictedOne: shuffle.Predict(w, in, sp).Predicted,
			PredictedTwo: shuffle.PredictHierarchical(w, two.groups, in, sp).Predicted,
		})
	}
	return res, nil
}

// String renders the ablation with the crossover marked.
func (r HierResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "One-level vs two-level shuffle (%.1f GB; groups ~ sqrt(w))\n",
		float64(r.DataBytes)/1e9)
	fmt.Fprintf(&b, "%8s %7s %14s %14s %12s %12s %8s\n",
		"workers", "groups", "1-level (s)", "2-level (s)", "model-1 (s)", "model-2 (s)", "winner")
	for _, row := range r.Rows {
		winner := "1-level"
		if row.TwoLevel < row.OneLevel {
			winner = "2-level"
		}
		fmt.Fprintf(&b, "%8d %7d %14.2f %14.2f %12.2f %12.2f %8s\n",
			row.Workers, row.Groups,
			row.OneLevel.Seconds(), row.TwoLevel.Seconds(),
			row.PredictedOne.Seconds(), row.PredictedTwo.Seconds(), winner)
	}
	return b.String()
}
