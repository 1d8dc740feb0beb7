package experiments

import (
	"fmt"

	"github.com/faaspipe/faaspipe/internal/autoplan"
	"github.com/faaspipe/faaspipe/internal/calib"
)

// DecisionResult is the auto-planner's offline decision for one
// workload: the candidate table behind "a seer knows best".
type DecisionResult struct {
	DataBytes int64
	Decision  autoplan.Decision
}

// Decide runs the cost-based planner over the profile's cloud at the
// given volume without executing anything: pure prediction, the
// decision table the CLI and the autoplan example print.
func Decide(profile calib.Profile, dataBytes int64, obj autoplan.Objective) (DecisionResult, error) {
	dataBytes, _ = paperScale(dataBytes, 0)
	dec, err := autoplan.Plan(calib.PlanWorkload(profile, dataBytes), calib.PlanEnv(profile), obj)
	if err != nil {
		return DecisionResult{}, fmt.Errorf("experiments: decide %d bytes: %w", dataBytes, err)
	}
	return DecisionResult{DataBytes: dataBytes, Decision: dec}, nil
}

// String renders the decision table.
func (r DecisionResult) String() string {
	return r.Decision.String()
}
